"""Desk-scale verification independent of the closed-form bounds.

Three finite-scale proxies for statements about genuinely infinite limsup
sets, all specialized to one-sided shifts of finite type:

* a covering-sum fit brackets the critical exponent that the exact-value
  formulas predict (upper-bound machinery): the sum over level-n cylinders
  of N_n exp(-s (n + floor(tau n))) flips from divergent to convergent at
  s* = (growth rate of ln N_n) / (1 + tau), estimated by one least-squares
  fit of ln N_n over the levels [depth/2, depth] (``critical_exponent``),
  and the bracket is the grid cell lo <= s* < hi (``grid_cell``);
* a Moran-style construction alternating free and pinned blocks gives a
  finite-stage lower estimate of the Hausdorff dimension (lower-bound
  machinery);
* an explicit witness point is built by gluing free words, connector paths
  and pinned target prefixes, then checked hit by hit against the metric
  (nonemptiness machinery).

The Moran construction and the witness plan space their blocks by the
specification gap, which on a mixing SFT is the mixing gap.  Neither
computes it: the caller passes ``symbolic.mixing_gap(shift)``, which also
rejects reducible and periodic shifts, so a shift analysed once serves every
rate (the CLI reads it from its per-call system analysis).

Metric convention, used identically by all three paths: with the one-sided
metric d(x, y) = exp(-min{j >= 1 : x_j != y_j}),

    d(sigma^n x, z) < exp(-t)   <=>   first disagreement index j > t
                                <=>   x agrees with z on the first
                                      floor_guarded(t) coordinates,

where floor_guarded snaps values within 1e-9 of an integer to that integer
(at an exact integer t the strict inequality still needs j >= t + 1, which
is the same agreement length).  The required disagreement exponent of a hit
at time n is therefore r(n) = floor_guarded(-ln phi(n)) + 1.

The fit reads exact big-integer counts of every level from one row-vector
recurrence (symbolic.word_counts_ending), which gives both sequences a
scheme splices, so rates that share a first target symbol can share it.
Its finite-depth bias comes from the subdominant eigenvalues of the
transition matrix (see ``critical_exponent``).  The Moran estimate reads
the log counts of all its stage lengths from one normalized float squaring
walk (symbolic.log_count_words_many).  A witness certificate lists its hit
times; construction records the agreement at each and verification
recomputes it, both from numpy mismatch arrays of the prefix against each
distinct target stream (one per residue class of its cycle), so neither has
a per-symbol Python loop and verification checks the claimed times only,
not every time in S.
"""

from __future__ import annotations

import bisect
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
    tau_exponents,
)
from .symbolic import ShiftOfFiniteType, log_count_words_many, word_counts_ending

_INT_GUARD = 1e-9
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

    def word_sequences(self, n_max: int) -> tuple[list[int], list[int]]:
        """The two sequences ``counts`` splices, for n = 1..n_max: the numbers
        of all admissible n-words and of those whose last symbol precedes z_1.

        They depend on the shift and z_1 only, so schemes that share both
        (different rates at the same target symbol) can share them.
        """
        x = self.shift
        z0 = self.target.symbol(0)
        return word_counts_ending(
            x, n_max, [b for b in range(x.alphabet_size) if x.transition[b][z0]]
        )

    def counts(
        self, n_max: int, words: tuple[list[int], list[int]] | None = None
    ) -> list[int]:
        """Exact numbers of level-n cylinders for n = 1..n_max (entry n - 1).

        Admissible n-words w such that w . z-prefix stays admissible: when a
        pinned part is present (match_len(n) > 0) this restricts the last
        symbol of w to the predecessors of z_1.  match_len is nondecreasing
        in n, so the levels without a pinned part come first.  ``words`` is
        ``word_sequences(m)`` for some m >= n_max, computed here when absent.
        """
        if n_max < 1:
            raise OracleError("level index must be >= 1")
        every, ending = self.word_sequences(n_max) if words is None else words
        if len(ending) < n_max:
            raise OracleError(f"word counts cover {len(ending)} levels, need {n_max}")
        free = next((n - 1 for n in range(1, n_max + 1) if self.match_len(n) > 0), n_max)
        return every[:free] + ending[free:n_max]

    def count(self, n: int) -> int:
        """Exact number of level-n cylinders: the last entry of counts(n)."""
        return self.counts(n)[-1]


def critical_exponent(
    scheme: LimsupCylinderScheme,
    depth: int,
    words: tuple[list[int], list[int]] | None = None,
) -> float:
    """Finite-depth estimate s* of the exponent where the covering sum flips.

    The level-n term is N_n exp(-s w(n)) with w(n) = n + floor(tau n), so
    the sum diverges for s below the growth rate of ln N_n divided by
    lim w(n)/n = 1 + tau, and converges above it.  The growth rate is the
    least-squares slope of ln N_n over the levels n in [depth/2, depth],
    and s* = slope / (1 + tau).  Using the exact limit 1 + tau, not the
    slope of w over the same window, keeps the floor in w(n) from biasing
    the estimate.  ``words`` is passed on to ``scheme.counts``.

    The finite-depth bias comes from the subdominant eigenvalues: N_n is
    c rho^n plus terms in lambda_j^n, so the slope misses ln rho by terms
    of order (|lambda_2| / rho)^(depth / 2).  On full shifts the counts are
    exact powers and s* is h/(1+tau) up to rounding; on the golden mean at
    depth 40 it is within 6e-12 (200 random tau in [0.05, 2]).  On the
    slow-mixing cycle-with-chord SFT with k = 12, whose subdominant moduli
    are close to rho, s* at tau = 1 (target the 12-cycle) is 3.7e-3 above
    h/(1+tau) at depth 40, 1.3e-4 at depth 200 and 1.3e-6 at depth 1000.
    """
    if depth < 4:
        raise OracleError("depth must be at least 4")
    counts = scheme.counts(depth, words)
    ns = range(max(1, depth // 2), depth + 1)
    mid = (ns[0] + ns[-1]) / 2.0
    # sum((n - mid) * (y - mean y)) == sum((n - mid) * y), as sum(n - mid) == 0
    cov = math.fsum((n - mid) * math.log(counts[n - 1]) for n in ns)
    var = math.fsum((n - mid) ** 2 for n in ns)
    return cov / var / (1.0 + scheme.tau)


def grid_cell(s_star: float, grid: Sequence[float]) -> tuple[float, float]:
    """(grid[i - 1], grid[i]) with grid[i - 1] <= s_star < grid[i].

    ``grid`` must be sorted strictly increasing; it is bisected, so it may
    compute its values on demand.  Raises OracleError when no cell holds
    s_star.
    """
    i = bisect.bisect_right(grid, s_star)
    if not 0 < i < len(grid):
        span = f"[{grid[0]:g}, {grid[-1]:g}]" if len(grid) else "empty"
        raise OracleError(
            f"grid does not straddle the critical exponent (s* = {s_star:.6g}, grid {span})"
        )
    return grid[i - 1], grid[i]


# ---------------------------------------------------------------------------
# Moran lower estimate
# ---------------------------------------------------------------------------

_MORAN_ETA = 0.02


def moran_dimension(shift: ShiftOfFiniteType, tau: float, stages: int, gap: int) -> float:
    """Finite-stage branching-ratio estimate of the limsup-set dimension.

    Builds ``stages`` stages, each a free block of all admissible words of
    length m_k followed (after connectors of ``gap`` symbols) by a pinned
    target prefix of length floor(tau * s_k) at hit time s_k.  ``gap`` must
    be ``symbolic.mixing_gap(shift)``, which rejects non-mixing shifts.
    Stage sizes grow so the carried-over prefix is a ~3% fraction of each
    new hit time, i.e. the free part of stage k occupies a (1 - 1.5 eta)
    fraction of s_k.  Returns (sum of ln branch counts) / (total length) -
    the Moran-set dimension of the scheme at finite depth.  Each stage
    multiplies the length by about (1 + tau) / (1.5 eta), so a stage count
    whose layout leaves the float range raises OracleError.

    The stage lengths depend on tau and the gap only, not on the counts, so
    they are laid out first, and the ln branch counts of all stages come
    from one squaring walk (``symbolic.log_count_words_many``), bit for bit
    the values each length would get powered alone.

    The estimate does not converge to h/(1+tau) as stages grow.  With the
    fixed eta = 0.02 every stage gives the same 1.5 eta = 3% of its hit time
    to the carried-over prefix and connectors, so within a few stages the
    value settles (to ~1e-14 by stage 12) on the plateau

        h (1 - 1.5 eta) / (1 + tau - 1.5 eta),

    a relative bias of 1.5 eta tau / (1 + tau - 1.5 eta) below h/(1+tau):
    none at tau = 0, 1.0% at tau = 0.5, 2.0% at tau = 2.  The golden mean
    at tau = 0.5 gives 0.3175343335 at 12 stages and at 40, against
    h/(1+tau) = 0.3208078834.

    The pinned content never enters the estimate, only its length, so no
    target needs to be supplied.
    """
    if shift.sided != "one":
        raise OracleError("Moran estimates are defined for one-sided shifts")
    if not (tau >= 0.0) or math.isinf(tau):
        raise OracleError("tau must be a finite nonnegative real")
    if stages < 1:
        raise OracleError("stages must be >= 1")
    lengths = []
    total_len = 0
    for _ in range(stages):
        carried = total_len + 2 * gap
        try:
            s_k = max(carried + 1, math.ceil(carried / (1.5 * _MORAN_ETA)))
            total_len = s_k + floor_guarded(tau * s_k)
        except OverflowError:
            raise OracleError(f"stages = {stages}: the stage lengths leave the float range") from None
        lengths.append(s_k - carried)
    total_log = 0.0
    for log_count in log_count_words_many(shift, lengths):
        total_log += log_count  # stage by stage, not sum(): the same roundings on every Python
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
    gap: int,
) -> WitnessPlan:
    """Schedule ``k`` hits along S with pinned lengths floor((tau+eta) s)+1.

    tau is phi's upper exponent along S; it must be finite.
    Each hit time is the first member of S leaving room for connectors of
    ``gap`` symbols, which must be ``symbolic.mixing_gap(shift)``, and at
    least one free symbol after the previous pinned block, and large enough
    (s > 1/eta) that the pinned ratio lands inside the (alpha, beta) window.
    A block therefore ends past both 1/eta and tau + eta, and a plan whose
    first block would end past the prefix limit that way raises PlanError
    before its floats overflow.
    """
    if shift.sided != "one":
        raise OracleError("witness plans are defined for one-sided shifts")
    if eta <= 0:
        raise PlanError("eta must be positive")
    if k < 0:
        raise PlanError("block count must be nonnegative")
    target = _as_shift_target(z)
    tau_bar = tau_exponents(phi, s).tau_upper
    if math.isinf(tau_bar):
        raise PlanError("rate decays super-exponentially along S; no finite plan")
    alpha = tau_bar + eta
    beta = tau_bar + 2.0 * eta
    if k > 0 and max(alpha, 1.0 / eta) >= _MAX_PREFIX_LEN:
        raise PlanError(
            f"eta = {eta:g} at tau = {tau_bar:g}: block 1 pushes the witness "
            f"prefix past {_MAX_PREFIX_LEN} symbols"
        )

    blocks: list[WitnessBlock] = []
    prev_end = 0
    last_hit = 0
    for i in range(k):
        floor_start = max(
            prev_end + 2 * gap + 1,
            math.floor(1.0 / eta) + 1,
            last_hit + 1,
        )
        hit = None
        candidate = floor_start
        for _ in range(10_000):
            candidate = first_member_at_least(s, candidate)
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
                free_len=hit - prev_end - 2 * gap,
                gap=gap,
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
    """Realize a plan as an explicit admissible prefix and record every hit.

    Free stretches are the lexicographically-least admissible fillers that
    join the previous pinned block to the next pinned target prefix; the
    pinned prefix of z_{s_k} starts exactly at position s_k (0-based), so the
    orbit at time s_k opens with floor((tau+eta) s_k)+1 target coordinates.
    Each hit records the first-disagreement index the finished prefix
    achieves there (``_agreement_lengths``) beside the one the plan requires.
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
    agreement = _agreement_lengths(
        np.array(prefix, dtype=np.int64), target, [b.hit_time for b in plan.blocks]
    )
    hit_records = tuple(
        WitnessHit(
            time=b.hit_time,
            achieved_exponent=a + 1,
            required_exponent=b.required_exponent,
        )
        for b, a in zip(plan.blocks, agreement)
    )
    return WitnessCertificate(
        prefix=prefix,
        hits=hit_records,
        all_verified=all(h.verified for h in hit_records),
    )


def _agreement_lengths(
    prefix: np.ndarray, target: ShiftTarget, times: Sequence[int]
) -> list[int]:
    """For each n in ``times``, the length of the longest common prefix of
    prefix[n:] and z_n.

    The times are grouped by their target stream, and each stream is
    matched once, by ``_stream_agreement``.  Every n must lie in [0, L).
    """
    groups: dict[SymbolSequence, list[int]] = {}
    for i, n in enumerate(times):
        groups.setdefault(target.target(n), []).append(i)
    starts = np.array(times, dtype=np.int64)
    out = np.zeros(len(starts), dtype=np.int64)
    for stream, idx in groups.items():
        out[idx] = _stream_agreement(prefix, stream, starts[idx])
    return out.tolist()


def _stream_agreement(prefix: np.ndarray, z: SymbolSequence, starts: np.ndarray) -> np.ndarray:
    """Length of the longest common prefix of prefix[n:] and z, per n in ``starts``.

    z = head . cycle^inf with h = |head| and p = |cycle|.  The head is
    settled by h vectorised compares.  Past it, the symbol z puts against
    prefix position i is cycle[(i - n - h) mod p], the same for every start
    in the residue class r = (n + h) mod p.  So each class needs one
    mismatch array, prefix[i] != cycle[(i - r) mod p], and its starts read
    their agreement off the next mismatch at or after n + h.  One class is
    held at a time, so memory beyond the cycle itself is O(L) whatever p
    is, and the time is O(min(p, len(starts)) L) in numpy.  Every start
    must lie in [0, L).
    """
    size = len(prefix)
    h, p = len(z.head), len(z.cycle)
    # a start whose head matches agrees on h symbols, or on its whole window
    agree = np.minimum(size - starts, h)
    for j in range(h - 1, -1, -1):  # downwards, so the first mismatch is written last
        pos = starts + j
        inside = np.flatnonzero(pos < size)
        agree[inside[prefix[pos[inside]] != z.head[j]]] = j
    rest = np.flatnonzero((agree == h) & (starts + h < size))
    pos = starts[rest] + h
    classes = pos % p
    phase = np.arange(size) % p
    cycle = np.array(z.cycle, dtype=np.int64)
    for r in np.unique(classes).tolist():
        # phase - r lies in (-p, p), and a negative index wraps to the class's symbol
        misses = np.flatnonzero(prefix != cycle[phase - r])
        mine = classes == r
        nxt = np.append(misses, size)[np.searchsorted(misses, pos[mine])]
        agree[rest[mine]] = nxt - starts[rest[mine]]
    return agree


def verify_witness(
    cert: WitnessCertificate,
    phi: RateFunction,
    z: ShiftTarget | SymbolSequence,
    s: TimeSet,
) -> list[int]:
    """The hit times of ``cert`` that an exact check proves, in its order.

    A claimed time n is confirmed when n lies in S and inside the prefix,
    the prefix covers the whole agreement window the rate requires there
    (n + r(n) - 1 <= L, with r(n) = ``required_exponent(phi, n)`` computed
    afresh, not read from the plan), and the prefix agrees with z_n on that
    window.  The agreement is recomputed from the prefix and the target; the
    exponents the certificate records are not read.
    """
    size = len(cert.prefix)
    claims = []
    for hit in cert.hits:
        n = hit.time
        if 0 <= n < size and s.contains(n):
            need = required_exponent(phi, n) - 1
            if n + need <= size:  # else the window is truncated; cannot certify
                claims.append((n, need))
    agreement = _agreement_lengths(
        np.array(cert.prefix, dtype=np.int64), _as_shift_target(z), [n for n, _ in claims]
    )
    return [n for (n, need), a in zip(claims, agreement) if a >= need]
