"""Desk-scale verification independent of the closed-form bounds.

Three finite-scale proxies for statements about genuinely infinite limsup
sets, all specialized to one-sided shifts of finite type:

* covering sums over cylinder schemes bracket the critical exponent that the
  exact-value formulas predict (upper-bound machinery);
* a Moran-style construction alternating free and pinned blocks gives a
  finite-stage lower estimate of the Hausdorff dimension (lower-bound
  machinery);
* an explicit witness point is built by gluing free words, connector paths
  and pinned target prefixes, then checked hit by hit against the metric
  (nonemptiness machinery).

Metric convention, used identically by all three paths: with the one-sided
metric d(x, y) = exp(-min{j >= 1 : x_j != y_j}),

    d(sigma^n x, z) < exp(-t)   <=>   first disagreement index j > t
                                <=>   x agrees with z on the first
                                      floor_guarded(t) coordinates,

where floor_guarded snaps values within 1e-9 of an integer to that integer
(at an exact integer t the strict inequality still needs j >= t + 1, which
is the same agreement length).  The required disagreement exponent of a hit
at time n is therefore r(n) = floor_guarded(-ln phi(n)) + 1.

Covering sums and brackets read exact big-integer counts of every level
from one row-vector recurrence (symbolic.word_counts); the Moran estimate
reads log counts from normalized float matrix powering at every length
(symbolic.log_count_words).  Witness hits are checked against one
agreement-length array per distinct target, computed with the Z-function,
so verification is linear in the prefix length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rates import (
    RateFunction,
    ShiftTarget,
    SymbolSequence,
    TimeSet,
    constant_shift_target,
    first_member_at_least,
    restrict_rate,
    time_set_members,
)
from .symbolic import (
    ShiftOfFiniteType,
    count_words,
    log_count_words,
    mixing_gap,
    word_counts,
)

_INT_GUARD = 1e-9
_SLOPE_DEADBAND = 1e-4
_EXP_OVERFLOW = 709.0
_MAX_PREFIX_LEN = 10_000_000


class OracleError(ValueError):
    pass


class PlanError(OracleError):
    pass


def floor_guarded(x: float, guard: float = _INT_GUARD) -> int:
    """floor(x), snapping values within ``guard`` of an integer to it."""
    r = round(x)
    if abs(x - r) <= guard:
        return int(r)
    return int(math.floor(x))


def required_exponent(phi: RateFunction, n: int) -> int:
    """Smallest first-disagreement index certifying d(sigma^n x, z) < phi(n)."""
    return floor_guarded(-phi.log_phi(n)) + 1


# ---------------------------------------------------------------------------
# Covering sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimsupCylinderScheme:
    """Level-n pieces of {x : d(sigma^n x, z) < e^(-tau n)} for a one-sided SFT.

    Level n consists of the cylinders [w z_1 ... z_l(n)] over admissible
    n-words w with an admissible junction into z, where l(n) = floor(tau n);
    each cylinder has diameter exponent n + l(n).
    """

    shift: ShiftOfFiniteType
    tau: float
    target: SymbolSequence

    def __post_init__(self) -> None:
        if self.shift.sided != "one":
            raise OracleError("cylinder schemes are defined for one-sided shifts")
        if not (self.tau >= 0.0) or math.isinf(self.tau):
            raise OracleError("tau must be a finite nonnegative real")
        if not self.shift.sequence_admissible(self.target):
            raise OracleError("target sequence is not admissible in the shift")

    def match_len(self, n: int) -> int:
        return floor_guarded(self.tau * n)

    def weight(self, n: int) -> int:
        """Diameter exponent of a level-n cylinder."""
        return n + self.match_len(n)

    def counts(self, n_max: int) -> list[int]:
        """Exact numbers of level-n cylinders for n = 1..n_max (entry n - 1).

        Admissible n-words w such that w . z-prefix stays admissible: when a
        pinned part is present (match_len(n) > 0) this restricts the last
        symbol of w to the predecessors of z_1.  match_len is nondecreasing
        in n, so the levels without a pinned part come first.
        """
        if n_max < 1:
            raise OracleError("level index must be >= 1")
        free = next((n - 1 for n in range(1, n_max + 1) if self.match_len(n) > 0), n_max)
        counts = word_counts(self.shift, free) if free else []
        if free < n_max:
            x = self.shift
            z0 = self.target.symbol(0)
            ends = [b for b in range(x.alphabet_size) if x.transition[b][z0]]
            counts += word_counts(x, n_max, ends)[free:]
        return counts

    def count(self, n: int) -> int:
        """Exact number of level-n cylinders: the last entry of counts(n)."""
        return self.counts(n)[-1]


def covering_sum(
    scheme: LimsupCylinderScheme, s: float, n_range: tuple[int, int]
) -> float:
    """sum_{n=N}^{N'} count(n) * exp(-s * weight(n)).

    Terms whose log exceeds the float range contribute +inf; everything else
    is evaluated from exact counts in log space and re-exponentiated.
    """
    n_lo, n_hi = n_range
    if n_lo < 1 or n_hi < n_lo:
        raise OracleError(f"invalid level range [{n_lo}, {n_hi}]")
    counts = scheme.counts(n_hi)
    total = 0.0
    for n in range(n_lo, n_hi + 1):
        log_term = math.log(counts[n - 1]) - s * scheme.weight(n)
        total += math.inf if log_term > _EXP_OVERFLOW else math.exp(log_term)
    return total


def bracket_critical_exponent(
    scheme: LimsupCylinderScheme,
    s_grid: Sequence[float],
    depth: int,
) -> tuple[float, float]:
    """Bracket the exponent where the covering sum flips divergent/convergent.

    For each grid value the least-squares slope of the log-terms over levels
    n in [depth/2, depth] classifies the tail: slope >= -1e-4 counts as
    divergent (the dead-band keeps the flat critical line on the divergent
    side), slope below as convergent.  Returns (largest divergent grid value,
    smallest convergent grid value); for exact exponential counts this pair
    brackets the true critical exponent.
    """
    grid = [float(s) for s in s_grid]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise OracleError("s_grid must be sorted strictly increasing, length >= 2")
    if depth < 4:
        raise OracleError("depth must be at least 4")
    ns = list(range(max(1, depth // 2), depth + 1))
    counts = scheme.counts(depth)
    log_counts = [math.log(counts[n - 1]) for n in ns]
    weights = [scheme.weight(n) for n in ns]
    ns_arr = np.array(ns, dtype=float)

    def slope(s: float) -> float:
        terms = np.array(
            [lc - s * w for lc, w in zip(log_counts, weights)], dtype=float
        )
        return float(np.polyfit(ns_arr, terms, 1)[0])

    slopes = [slope(s) for s in grid]
    divergent = [sl >= -_SLOPE_DEADBAND for sl in slopes]
    if all(divergent) or not divergent[0]:
        diag = ", ".join(f"s={s:g}: slope={sl:.4g}" for s, sl in zip(grid, slopes))
        raise OracleError(f"grid does not straddle the critical exponent ({diag})")
    flip = divergent.index(False)
    return grid[flip - 1], grid[flip]


# ---------------------------------------------------------------------------
# Moran lower estimate
# ---------------------------------------------------------------------------

_MORAN_ETA = 0.02


def moran_dimension(shift: ShiftOfFiniteType, tau: float, depth: int) -> float:
    """Finite-stage branching-ratio estimate of the limsup-set dimension.

    Builds ``depth`` stages, each a free block of all admissible words of
    length m_k followed (after mixing-gap connectors) by a pinned target
    prefix of length floor(tau * s_k) at hit time s_k.  Stage sizes grow so
    the carried-over prefix is a ~3% fraction of each new hit time, i.e. the
    free part of stage k occupies a (1 - 1.5 eta) fraction of s_k.  Returns
    (sum of ln branch counts) / (total length) - the Moran-set dimension of
    the scheme at finite depth.

    The estimate does not converge to h/(1+tau) as depth grows.  With the
    fixed eta = 0.02 every stage gives the same 1.5 eta = 3% of its hit time
    to the carried-over prefix and connectors, so within a few stages the
    value settles (to ~1e-14 by depth 12) on the plateau

        h (1 - 1.5 eta) / (1 + tau - 1.5 eta),

    a relative bias of 1.5 eta tau / (1 + tau - 1.5 eta) below h/(1+tau):
    none at tau = 0, 1.0% at tau = 0.5, 2.0% at tau = 2.  The golden mean
    at tau = 0.5 gives 0.3175343335 at depth 12 and at depth 40, against
    h/(1+tau) = 0.3208078834.

    The pinned content never enters the estimate, only its length, so no
    target needs to be supplied.
    """
    if shift.sided != "one":
        raise OracleError("Moran estimates are defined for one-sided shifts")
    if not (tau >= 0.0) or math.isinf(tau):
        raise OracleError("tau must be a finite nonnegative real")
    if depth < 1:
        raise OracleError("depth must be >= 1")
    p = mixing_gap(shift)  # rejects non-mixing shifts
    total_log = 0.0
    total_len = 0
    for _ in range(depth):
        carried = total_len + 2 * p
        s_k = max(carried + 1, math.ceil(carried / (1.5 * _MORAN_ETA)))
        m_k = s_k - carried
        total_log += log_count_words(shift, m_k)
        total_len = s_k + floor_guarded(tau * s_k)
    return total_log / total_len


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessBlock:
    """One gluing block: hit time, free filler budget, gap bound, pinned length.

    The layout is prev_end + gap + free_len + gap = hit_time, with the pinned
    target prefix occupying [hit_time, hit_time + pinned_len);
    required_exponent is the first-disagreement index the rate demands at the
    hit time, frozen in at planning time.
    """

    hit_time: int
    free_len: int
    gap: int
    pinned_len: int
    required_exponent: int

    @property
    def end(self) -> int:
        return self.hit_time + self.pinned_len


@dataclass(frozen=True)
class WitnessPlan:
    """Block schedule plus the (alpha, beta, eta) window that sized it.

    One-sided specialization: the window constrains the pinned ratio,
    alpha * s_k < pinned_len <= alpha * s_k + 1 < beta * s_k, i.e. the pinned
    prefix slightly overshoots the decay the rate demands.
    """

    blocks: tuple[WitnessBlock, ...]
    alpha: float
    beta: float
    eta: float

    def __post_init__(self) -> None:
        prev_end = 0
        last_hit = -1
        for b in self.blocks:
            if b.hit_time <= last_hit:
                raise PlanError("hit times must be strictly increasing")
            if prev_end + 2 * b.gap + b.free_len != b.hit_time:
                raise PlanError("block layout does not add up to the hit time")
            ratio = b.pinned_len / b.hit_time
            if not (self.alpha < ratio < self.beta):
                raise PlanError(
                    f"pinned ratio {ratio:.4f} outside ({self.alpha:.4f}, {self.beta:.4f})"
                )
            if b.pinned_len < b.required_exponent - 1:
                raise PlanError("pinned block shorter than the required agreement")
            prev_end = b.end
            last_hit = b.hit_time

    @property
    def total_length(self) -> int:
        return self.blocks[-1].end if self.blocks else 0


@dataclass(frozen=True)
class WitnessHit:
    time: int
    achieved_exponent: int
    required_exponent: int

    @property
    def verified(self) -> bool:
        # first disagreement >= required index <=> distance < phi(time)
        return self.achieved_exponent >= self.required_exponent


@dataclass(frozen=True)
class WitnessCertificate:
    prefix: tuple[int, ...]
    hits: tuple[WitnessHit, ...]
    all_verified: bool


def _as_shift_target(z: ShiftTarget | SymbolSequence) -> ShiftTarget:
    return constant_shift_target(z) if isinstance(z, SymbolSequence) else z


def plan_witness(
    shift: ShiftOfFiniteType,
    phi: RateFunction,
    z: ShiftTarget | SymbolSequence,
    s: TimeSet,
    k: int,
    eta: float,
) -> WitnessPlan:
    """Schedule ``k`` hits along S with pinned lengths floor((tau+eta) s)+1.

    tau is the upper exponent of phi restricted to S; it must be finite.
    Each hit time is the first member of S leaving room for connectors and at
    least one free symbol after the previous pinned block, and large enough
    (s > 1/eta) that the pinned ratio lands inside the (alpha, beta) window.
    """
    if shift.sided != "one":
        raise OracleError("witness plans are defined for one-sided shifts")
    if eta <= 0:
        raise PlanError("eta must be positive")
    if k < 0:
        raise PlanError("block count must be nonnegative")
    p = mixing_gap(shift)
    target = _as_shift_target(z)
    tau_bar = restrict_rate(phi, s).exponents().tau_upper
    if math.isinf(tau_bar):
        raise PlanError("rate decays super-exponentially along S; no finite plan")
    alpha = tau_bar + eta
    beta = tau_bar + 2.0 * eta

    blocks: list[WitnessBlock] = []
    prev_end = 0
    last_hit = 0
    for i in range(k):
        floor_start = max(
            prev_end + 2 * p + 1,
            math.floor(1.0 / eta) + 1,
            last_hit + 1,
        )
        hit = None
        candidate = floor_start
        for _ in range(10_000):
            try:
                candidate = first_member_at_least(s, candidate)
            except Exception as exc:
                raise PlanError(f"time set too sparse for block {i + 1}: {exc}") from exc
            pinned = floor_guarded(alpha * candidate) + 1
            # skip times where phi undershoots its exponential envelope
            if required_exponent(phi, candidate) - 1 <= pinned:
                hit = candidate
                break
            candidate += 1
        if hit is None:
            raise PlanError(
                f"block {i + 1}: rate exceeds its exponential envelope along S"
            )
        blocks.append(
            WitnessBlock(
                hit_time=hit,
                free_len=hit - prev_end - 2 * p,
                gap=p,
                pinned_len=pinned,
                required_exponent=required_exponent(phi, hit),
            )
        )
        if not shift.sequence_admissible(target.target(hit)):
            raise PlanError(f"target at time {hit} is not admissible in the shift")
        prev_end = hit + pinned
        last_hit = hit
        if prev_end > _MAX_PREFIX_LEN:
            raise PlanError(
                f"block {i + 1} pushes the witness prefix past {_MAX_PREFIX_LEN} symbols"
            )
    return WitnessPlan(blocks=tuple(blocks), alpha=alpha, beta=beta, eta=eta)


def _reach_sets(shift: ShiftOfFiniteType, into: int, needed: int) -> list[frozenset[int]]:
    """reach[j] = symbols that start an admissible (j+1)-word whose last
    symbol precedes ``into``; stabilizes at the full alphabet for mixing
    shifts once j+1 reaches the mixing gap."""
    k = shift.alphabet_size
    full = frozenset(range(k))
    sets = [frozenset(a for a in range(k) if shift.transition[a][into])]
    while len(sets) <= needed and sets[-1] != full:
        prev = sets[-1]
        sets.append(
            frozenset(a for a in range(k) if any(shift.transition[a][b] for b in prev))
        )
    return sets


def _fill_stretch(
    shift: ShiftOfFiniteType, length: int, prev: int | None, into: int
) -> list[int]:
    """Lexicographically-least admissible word of ``length`` symbols following
    ``prev`` and ending at a predecessor of ``into``.

    Greedy with reachability pruning; connector feasibility comes from the
    mixing gap, so a dead end would indicate an internal inconsistency.
    """
    k = shift.alphabet_size
    reach = _reach_sets(shift, into, length)

    def reach_at(j: int) -> frozenset[int]:
        return reach[j] if j < len(reach) else reach[-1]

    out: list[int] = []
    cur = prev
    for i in range(length):
        remaining = length - 1 - i
        feasible = reach_at(remaining)
        for c in range(k):
            if (cur is None or shift.transition[cur][c]) and c in feasible:
                out.append(c)
                cur = c
                break
        else:
            raise AssertionError(
                "no admissible connector despite mixing; internal error"
            )
    return out


def construct_witness(
    plan: WitnessPlan,
    shift: ShiftOfFiniteType,
    z: ShiftTarget | SymbolSequence,
) -> WitnessCertificate:
    """Realize a plan as an explicit admissible prefix and verify every hit.

    Free stretches are the lexicographically-least admissible fillers that
    join the previous pinned block to the next pinned target prefix; the
    pinned prefix of z_{s_k} starts exactly at position s_k (0-based), so the
    orbit at time s_k opens with floor((tau+eta) s_k)+1 target coordinates.
    """
    target = _as_shift_target(z)
    symbols: list[int] = []
    prev: int | None = None
    for b in plan.blocks:
        tgt = target.target(b.hit_time)
        stretch = b.hit_time - len(symbols)
        symbols.extend(_fill_stretch(shift, stretch, prev, tgt.symbol(0)))
        pinned = tgt.prefix(b.pinned_len)
        symbols.extend(pinned)
        prev = symbols[-1]

    prefix = tuple(symbols)
    assert shift.word_admissible(prefix), "constructed prefix is inadmissible"

    # first disagreement index = agreement length + 1; at the end of the
    # prefix that is the first index beyond the observable window
    hit_targets = [target.target(b.hit_time) for b in plan.blocks]
    agreement = {tgt: _agreement_lengths(prefix, tgt) for tgt in set(hit_targets)}
    hit_records = tuple(
        WitnessHit(
            time=b.hit_time,
            achieved_exponent=agreement[tgt][b.hit_time] + 1,
            required_exponent=b.required_exponent,
        )
        for b, tgt in zip(plan.blocks, hit_targets)
    )
    return WitnessCertificate(
        prefix=prefix,
        hits=hit_records,
        all_verified=all(h.verified for h in hit_records),
    )


def _agreement_lengths(prefix: Sequence[int], z: SymbolSequence) -> list[int]:
    """a[n] = length of the longest common prefix of prefix[n:] and z.

    Z-function (Gusfield) of z_0 .. z_{L-1}, a sentinel, then the prefix:
    its entry at L + 1 + n is a[n].  O(L) symbol comparisons for all n.
    """
    size = len(prefix)
    s = [*z.prefix(size), None, *prefix]
    end = len(s)
    zf = [0] * end
    lo = hi = 0  # rightmost window s[lo:hi] known to match s[:hi - lo]
    for i in range(1, end):
        m = 0
        if i < hi:
            m = zf[i - lo]
            if m < hi - i:  # the match ends inside the window
                zf[i] = m
                continue
            m = hi - i
        while i + m < end and s[m] == s[i + m]:
            m += 1
        zf[i] = m
        lo, hi = i, i + m
    return zf[size + 1 :]


def verify_witness(
    prefix: Sequence[int],
    phi: RateFunction,
    z: ShiftTarget | SymbolSequence,
    s: TimeSet,
) -> list[int]:
    """Exact per-time hit check of d(sigma^n x, z_n) < phi(n) over n in S.

    A time verifies only when the prefix is long enough to certify the whole
    required agreement window, so the result is a list of *proven* hit times.
    """
    target = _as_shift_target(z)
    agreement: dict[SymbolSequence, list[int]] = {}
    verified = []
    for n in time_set_members(s, 0, len(prefix)):
        r = required_exponent(phi, n)
        if n + r - 1 > len(prefix):
            continue  # agreement window truncated; cannot certify
        tgt = target.target(n)
        if tgt not in agreement:
            agreement[tgt] = _agreement_lengths(prefix, tgt)
        if agreement[tgt][n] >= r - 1:
            verified.append(n)
    return verified


def count_separated(shift: ShiftOfFiniteType, n: int, eps_exponent: int) -> int:
    """Maximal (n, e^-r)-separated cardinality for a one-sided SFT.

    Two points are (n, e^-r)-separated iff they differ somewhere in their
    first n + r - 1 coordinates, so the maximum is the exact word count at
    that length.
    """
    if shift.sided != "one":
        raise OracleError("separated-set counts are implemented for one-sided shifts")
    if n < 1 or eps_exponent < 1:
        raise OracleError("need n >= 1 and eps_exponent >= 1")
    return count_words(shift, n + eps_exponent - 1)
