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

Targets are ``rates.EventuallyPeriodic`` sequences: a cylinder scheme takes
one symbol stream z (an EventuallyPeriodic of ints), and the witness
functions take the schedule n -> z_n (an EventuallyPeriodic of streams).

The fit streams exact big-integer counts, level by level, from one
row-vector recurrence (symbolic.word_counts) with one entry per class of
equal columns of the transition matrix, since symbols with the same
predecessors end equally many words (5 entries, not 60, on a 60-symbol
shift whose columns repeat), and keeps only the logs of its window, of
both sequences a scheme chooses between, so rates that share a first
target symbol share them.  Its finite-depth bias comes from the
subdominant eigenvalues of the transition matrix (see
``critical_exponent``).  Moran stage lengths depend on tau and the gap
only, so each rate's are laid out first (``moran_layout``), and the
estimates of all rates read the log counts of every stage from one
squaring walk per call, which keeps one row vector per stage and rescales
by exact powers of two (``moran_dimension`` over
symbolic.log_count_words_many).  A witness prefix is one read-only int64
array, built from tiled periodic pieces (``_fill_stretch``), and a
certificate is that prefix and its claimed hit times, nothing measured.
Construction glues the prefix; verification measures every claimed hit
once, from numpy mismatch arrays of the prefix against each distinct
target stream (one per residue class of its cycle), so it has no
per-symbol Python loop and reads the claimed times only, not every time in
S.  A plan is a tuple of blocks whose rules only the search of
``plan_witness`` tests; the independent check is ``verify_witness``, which
also checks, once per witness, that the prefix is an admissible word (one
gather of its symbol pairs); construction does not.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Sequence

from .rates import EventuallyPeriodic, RateFunction, TimeSet, tau_exponents
from .symbolic import ShiftOfFiniteType, log_count_words_many, word_counts

if TYPE_CHECKING:
    import numpy as np

_INT_GUARD = 1e-9
_MAX_PREFIX_LEN = 10_000_000


class OracleError(ValueError):
    pass


class PlanError(OracleError):
    pass


def floor_guarded(x: float) -> int:
    """floor(x), snapping values within ``_INT_GUARD`` of an integer to it."""
    r = round(x)
    if abs(x - r) <= _INT_GUARD:
        return int(r)
    return int(math.floor(x))


def required_exponent(phi: RateFunction, n: int) -> float:
    """Smallest first-disagreement index certifying d(sigma^n x, z) < phi(n).

    An int, or math.inf where -ln phi(n) overflows: no finite agreement
    certifies that time, so plans skip it and verification never confirms it.
    """
    t = -phi.log_phi(n)
    return math.inf if math.isinf(t) else floor_guarded(t) + 1


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
    target: EventuallyPeriodic

    def __post_init__(self) -> None:
        if self.shift.sided != "one":
            raise OracleError("cylinder schemes are defined for one-sided shifts")
        if not (self.tau >= 0.0) or math.isinf(self.tau):
            raise OracleError("tau must be a finite nonnegative real")
        if not self.shift.sequence_admissible(self.target):
            raise OracleError("target sequence is not admissible in the shift")

    def match_len(self, n: int) -> int:
        return floor_guarded(self.tau * n)

    def _word_counts(self, n_max: int) -> Iterator[tuple[int, int]]:
        """symbolic.word_counts up to n_max, ending at the predecessors of z_1."""
        x = self.shift
        z0 = self.target.at(0)
        return word_counts(x, n_max, [b for b in range(x.alphabet_size) if x.transition[b][z0]])

    def count(self, n: int) -> int:
        """Exact number of level-n cylinders.

        Admissible n-words w such that w . z-prefix stays admissible: when a
        pinned part is present (match_len(n) > 0) this restricts the last
        symbol of w to the predecessors of z_1.
        """
        if n < 1:
            raise OracleError("level index must be >= 1")
        every, ending = deque(self._word_counts(n), maxlen=1).pop()
        return ending if self.match_len(n) > 0 else every

    def log_window(self, depth: int) -> tuple[list[float], list[float]]:
        """ln of both numbers ``count`` chooses between, of all admissible
        n-words and of those whose last symbol precedes z_1, for the levels
        n = depth // 2 .. depth that ``critical_exponent`` fits.

        They depend on the shift and z_1 only, so schemes that share both
        (different rates at the same target symbol) can share them.
        """
        every, ending = [], []
        for n, (a, e) in enumerate(self._word_counts(depth), 1):
            if n >= depth // 2:
                every.append(math.log(a))
                ending.append(math.log(e))
        return every, ending


def critical_exponent(
    scheme: LimsupCylinderScheme,
    depth: int,
    window: tuple[list[float], list[float]] | None = None,
) -> float:
    """Finite-depth estimate s* of the exponent where the covering sum flips.

    The level-n term is N_n exp(-s w(n)) with w(n) = n + floor(tau n), so
    the sum diverges for s below the growth rate of ln N_n divided by
    lim w(n)/n = 1 + tau, and converges above it.  The growth rate is the
    least-squares slope of ln N_n over the levels n in [depth/2, depth],
    and s* = slope / (1 + tau).  Using the exact limit 1 + tau, not the
    slope of w over the same window, keeps the floor in w(n) from biasing
    the estimate.  ``window`` is ``scheme.log_window(depth)``, computed here
    when absent; ln N_n is its second list where match_len(n) > 0 and its
    first elsewhere, as in ``scheme.count``.

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
    every, ending = scheme.log_window(depth) if window is None else window
    ns = range(depth // 2, depth + 1)
    if len(ending) != len(ns):
        raise OracleError(f"log counts cover {len(ending)} levels, need {len(ns)}")
    # match_len is nondecreasing in n, so the levels without a pinned part come first
    free = next((i for i, n in enumerate(ns) if scheme.match_len(n) > 0), len(ns))
    logs = every[:free] + ending[free:]
    mid = (ns[0] + ns[-1]) / 2.0
    # sum((n - mid) * (y - mean y)) == sum((n - mid) * y), as sum(n - mid) == 0
    cov = math.fsum((n - mid) * y for n, y in zip(ns, logs))
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


@dataclass(frozen=True)
class MoranLayout:
    """The free block lengths m_k of a Moran construction, stage by stage,
    and the total length its estimate divides by."""

    free_lengths: tuple[int, ...]
    total_len: int


def moran_layout(tau: float, stages: int, gap: int) -> MoranLayout:
    """Stage lengths of the Moran construction at ``tau`` (see ``moran_dimension``).

    Stage k is a free block of all admissible words of length m_k followed
    (after connectors of ``gap`` symbols) by a pinned target prefix of
    length floor(tau * s_k) at hit time s_k.  ``gap`` must be
    ``symbolic.mixing_gap(shift)``, which rejects non-mixing shifts.  Stage
    sizes grow so the carried-over prefix is a ~3% fraction of each new hit
    time, i.e. the free part of stage k occupies a (1 - 1.5 eta) fraction
    of s_k.  Each stage multiplies the length by about (1 + tau) / (1.5 eta),
    so a stage count whose layout leaves the float range raises
    OracleError.  The lengths depend on tau and the gap only, never on the
    counts.
    """
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
    return MoranLayout(tuple(lengths), total_len)


def moran_dimension(shift: ShiftOfFiniteType, layouts: Sequence[MoranLayout]) -> list[float]:
    """Finite-stage branching-ratio estimate of the limsup-set dimension,
    one per layout (``moran_layout``).

    Each estimate is (sum of ln branch counts) / (total length), the
    Moran-set dimension of the scheme at finite depth; stage k branches
    into the admissible words of length m_k.  The ln branch counts of every
    stage of every layout come from one squaring walk
    (``symbolic.log_count_words_many``), so a call over many rates squares
    the base once, and keeps one row vector of k entries per stage: O(L k)
    memory for L stages in all.  Each estimate is bit for bit the value its
    layout gets walked alone.

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
    logs = iter(log_count_words_many(shift, [m for lay in layouts for m in lay.free_lengths]))
    estimates = []
    for lay in layouts:
        total_log = 0.0
        for log_count in islice(logs, len(lay.free_lengths)):
            total_log += log_count  # stage by stage, not sum(): the same roundings on every Python
        estimates.append(total_log / lay.total_len)
    return estimates


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessBlock:
    """One gluing block: a hit time and the pinned target prefix there.

    The pinned prefix of the target occupies [hit_time, hit_time +
    pinned_len), and the stretch from the previous block's end up to
    hit_time is free filler joined by connectors; required_exponent is the
    first-disagreement index the rate demands at the hit time, frozen in at
    planning time.
    """

    hit_time: int
    pinned_len: int
    required_exponent: int

    @property
    def end(self) -> int:
        return self.hit_time + self.pinned_len


@dataclass(frozen=True)
class WitnessCertificate:
    """An explicit prefix of the witness point and the hit times it claims.

    ``prefix`` is a read-only int64 numpy array.  Any other sequence given
    (a hand-built tuple, or a writable array) is copied into one, so a
    certificate's prefix cannot change once made; certificates compare
    equal when their prefixes hold the same symbols and they claim the same
    times.  A certificate records no measurement: ``verify_witness``
    measures every claimed hit.
    """

    prefix: np.ndarray
    times: tuple[int, ...]

    def __post_init__(self) -> None:
        import numpy as np

        prefix = np.asarray(self.prefix, dtype=np.int64)
        if prefix.flags.writeable:
            prefix = prefix.copy()
            prefix.flags.writeable = False
            object.__setattr__(self, "prefix", prefix)

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, WitnessCertificate):
            return NotImplemented
        return (
            np.array_equal(self.prefix, other.prefix)
            and self.times == other.times
        )


def plan_witness(
    shift: ShiftOfFiniteType,
    phi: RateFunction,
    z: EventuallyPeriodic,
    s: TimeSet,
    k: int,
    eta: float,
    gap: int,
) -> tuple[WitnessBlock, ...]:
    """Schedule ``k`` hits along S with pinned lengths floor((tau+eta) s)+1.

    tau is phi's upper exponent along S; it must be finite.
    Each hit time is the first member of S leaving room for connectors of
    ``gap`` symbols, which must be ``symbolic.mixing_gap(shift)``, and at
    least one free symbol after the previous pinned block, and large enough
    (s > 1/eta) that the pinned ratio lands inside the window
    alpha < pinned_len / s < beta, with alpha = tau + eta and beta =
    tau + 2 eta: the pinned prefix slightly overshoots the decay the rate
    demands.  The search moves past an s where the float ratio rounds onto
    an edge of that window, as it does past one where phi undershoots its
    envelope (pinned_len < r(s) - 1).
    A block therefore ends past both 1/eta and tau + eta, and a plan whose
    first block would end past the prefix limit that way, or whose hit time
    reaches that limit, raises PlanError before its floats overflow.
    These rules are tested here only: the blocks carry no record of them,
    and ``verify_witness`` checks the finished witness independently.
    """
    if shift.sided != "one":
        raise OracleError("witness plans are defined for one-sided shifts")
    if eta <= 0:
        raise PlanError("eta must be positive")
    if k < 0:
        raise PlanError("block count must be nonnegative")
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
    for i in range(k):
        # past the previous hit too: prev_end is that hit plus its pinned length
        hit = max(prev_end + 2 * gap + 1, math.floor(1.0 / eta) + 1)
        for _ in range(10_000):
            hit = s.first_at_least(hit)
            if hit >= _MAX_PREFIX_LEN:  # a block there ends past the prefix limit
                raise PlanError(
                    f"block {i + 1} pushes the witness prefix past {_MAX_PREFIX_LEN} symbols"
                )
            pinned = floor_guarded(alpha * hit) + 1
            # skip times where the float ratio leaves the window or phi undershoots its envelope
            if alpha < pinned / hit < beta:
                need = required_exponent(phi, hit)
                if need - 1 <= pinned:
                    break
            hit += 1
        else:
            raise PlanError(
                f"block {i + 1}: rate exceeds its exponential envelope along S"
            )
        blocks.append(
            WitnessBlock(
                hit_time=hit,
                pinned_len=pinned,
                required_exponent=need,
            )
        )
        if not shift.sequence_admissible(z.at(hit)):
            raise PlanError(f"target at time {hit} is not admissible in the shift")
        prev_end = hit + pinned
        if prev_end > _MAX_PREFIX_LEN:
            raise PlanError(
                f"block {i + 1} pushes the witness prefix past {_MAX_PREFIX_LEN} symbols"
            )
    return tuple(blocks)


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
    shift: ShiftOfFiniteType, length: int, prev: int | None, reach: list[frozenset[int]]
) -> np.ndarray:
    """Lexicographically-least admissible word of ``length`` symbols following
    ``prev`` and ending at a predecessor of ``into``, as an int64 array.

    ``reach`` is ``_reach_sets(shift, into, needed)`` for any needed >=
    length, so one list serves every stretch into the same symbol: a larger
    needed only extends the list, and a list that stops short has reached
    the full alphabet, where every later set stays.  A symbol with j
    symbols after it must lie in reach[j], so wherever that set is the full
    alphabet (j >= len(reach) - 1) the least choice is the least successor
    of the symbol before.  That walk is eventually periodic, with period at
    most k, so the first length - len(reach) + 1 symbols are its transient
    and then its cycle tiled.  The rest, the last len(reach) - 1 symbols
    or all of a shorter stretch, are chosen greedily with reachability
    pruning; connector feasibility comes from the mixing gap, so a dead end
    would indicate an internal inconsistency.
    """
    import numpy as np

    rows = shift.transition
    free = max(length - len(reach) + 1, 0)  # 0 unless reach ends at the full alphabet
    walk: list[int] = []  # at most k + 1 symbols, so membership tests stay cheap
    cur = 0 if prev is None else rows[prev].index(1)
    while len(walk) < free and cur not in walk:
        walk.append(cur)
        cur = rows[cur].index(1)
    body = np.array(walk, dtype=np.int64)
    if len(walk) < free:  # cur repeats: from its first index on, the walk is a cycle
        start = walk.index(cur)
        cycle = body[start:]
        body = np.concatenate([body[:start], np.tile(cycle, -(-(free - start) // len(cycle)))])[:free]
    tail: list[int] = []
    cur = int(body[-1]) if free else prev
    for remaining in range(min(length, len(reach) - 1) - 1, -1, -1):
        feasible = reach[remaining]
        for c in range(len(rows)):
            if (cur is None or rows[cur][c]) and c in feasible:
                tail.append(c)
                cur = c
                break
        else:
            raise AssertionError(
                "no admissible connector despite mixing; internal error"
            )
    return np.concatenate([body, np.array(tail, dtype=np.int64)])


def _stream_prefix(z: EventuallyPeriodic, length: int) -> np.ndarray:
    """z.prefix(length) as an int64 array: the head, then the cycle tiled."""
    import numpy as np

    reps = -(-max(length - len(z.head), 0) // len(z.cycle))
    cycle = np.array(z.cycle, dtype=np.int64)
    return np.concatenate([np.array(z.head, dtype=np.int64), np.tile(cycle, reps)])[:length]


def construct_witness(
    blocks: Sequence[WitnessBlock],
    shift: ShiftOfFiniteType,
    z: EventuallyPeriodic,
) -> WitnessCertificate:
    """Realize planned blocks as an explicit admissible prefix and claim every hit.

    Free stretches are the lexicographically-least admissible fillers that
    join the previous pinned block to the next pinned target prefix
    (``_fill_stretch``); the pinned prefix of z_{s_k} starts exactly at
    position s_k (0-based), so the orbit at time s_k opens with
    floor((tau+eta) s_k)+1 target coordinates.  Both are built as arrays,
    their periodic parts tiled, and joined once into the certificate's
    read-only int64 prefix; the certificate claims the blocks' hit times
    and measures none of them (``verify_witness`` does).  Blocks from
    ``plan_witness`` are not re-checked.  A hand-built block that starts
    before time 0 or before the previous one ends, or pins no symbol,
    raises PlanError, since no filler or target prefix fits there; one that
    breaks a plan rule otherwise still yields a certificate, whose hits
    then fail.
    """
    import numpy as np

    for b in blocks:  # z_n exists for n >= 0 only
        if b.hit_time < 0:
            raise PlanError(f"block at time {b.hit_time} starts before time 0")
    targets = [z.at(b.hit_time) for b in blocks]
    # one reach list per first target symbol; the last hit time bounds every stretch
    reach = {
        z0: _reach_sets(shift, z0, blocks[-1].hit_time)
        for z0 in {t.at(0) for t in targets}
    }
    pieces = [np.zeros(0, dtype=np.int64)]
    end = 0
    prev: int | None = None
    for b, tgt in zip(blocks, targets):
        if b.hit_time < end:
            raise PlanError(f"block at time {b.hit_time} starts before the previous one ends at {end}")
        if b.pinned_len < 1:
            raise PlanError(f"block at time {b.hit_time} pins {b.pinned_len} symbols; it needs at least 1")
        pieces.append(_fill_stretch(shift, b.hit_time - end, prev, reach[tgt.at(0)]))
        pieces.append(_stream_prefix(tgt, b.pinned_len))
        end = b.end
        prev = tgt.at(b.pinned_len - 1)

    prefix = np.concatenate(pieces)
    prefix.flags.writeable = False
    return WitnessCertificate(
        prefix=prefix,
        times=tuple(b.hit_time for b in blocks),
    )


def _agreement_lengths(prefix: np.ndarray, target: EventuallyPeriodic, times: Sequence[int]) -> list[int]:
    """For each n in ``times``, the length of the longest common prefix of
    prefix[n:] and z_n.

    The times are grouped by their target stream, and each stream is
    matched once, by ``_stream_agreement``, against the prefix, read in
    place through ``np.asarray`` (no copy of an int64 array).  Every n must
    lie in [0, L).
    """
    import numpy as np

    groups: dict[EventuallyPeriodic, list[int]] = {}
    for i, n in enumerate(times):
        groups.setdefault(target.at(n), []).append(i)
    symbols = np.asarray(prefix, dtype=np.int64)
    starts = np.array(times, dtype=np.int64)
    out = np.zeros(len(starts), dtype=np.int64)
    for stream, idx in groups.items():
        out[idx] = _stream_agreement(symbols, stream, starts[idx])
    return out.tolist()


def _stream_agreement(prefix: np.ndarray, z: EventuallyPeriodic, starts: np.ndarray) -> np.ndarray:
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
    import numpy as np

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
    shift: ShiftOfFiniteType,
    phi: RateFunction,
    z: EventuallyPeriodic,
    s: TimeSet,
) -> tuple[list[int], list[int]]:
    """Measure every hit ``cert`` claims, and prove the ones an exact check allows.

    Returns ``(achieved, confirmed)``.  ``achieved[i]`` is the
    first-disagreement index of the orbit against z_n at n =
    ``cert.times[i]``: the agreement length of prefix[n:] and z_n plus 1,
    which at the end of the prefix is the first index beyond the
    observable window, and 0 for a time outside [0, L).  One
    ``_agreement_lengths`` pass measures every time inside the prefix.

    ``confirmed`` lists, in the certificate's order, the times an exact
    check proves.  Nothing is confirmed unless the prefix is an admissible
    word of ``shift``: only then does it extend to a point of the shift.
    A claimed time n is then confirmed when n lies in S and inside the
    prefix, the prefix covers the whole agreement window the rate requires
    there (n + r(n) - 1 <= L, with r(n) = ``required_exponent(phi, n)``
    computed afresh, not read from the plan), and achieved >= r(n).  The
    prefix is the certificate's int64 array, so admissibility is one gather
    of its pairs (``ShiftOfFiniteType.word_admissible``).
    """
    size = len(cert.prefix)
    agreement = iter(_agreement_lengths(cert.prefix, z, [n for n in cert.times if 0 <= n < size]))
    # first disagreement index = agreement length + 1
    achieved = [next(agreement) + 1 if 0 <= n < size else 0 for n in cert.times]
    if not shift.word_admissible(cert.prefix):
        return achieved, []
    confirmed = []
    for n, a in zip(cert.times, achieved):
        if 0 <= n < size and s.contains(n):
            need = required_exponent(phi, n)
            if n + need - 1 <= size and a >= need:  # else the window is truncated or missed
                confirmed.append(n)
    return achieved, confirmed
