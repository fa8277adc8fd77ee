"""Shift spaces: SFTs, sofic presentations, entropy, mixing and index sets.

A shift of finite type is encoded by a k x k 0/1 transition matrix M over the
symbol alphabet {0, ..., k-1}: the word ab is admissible iff M[a][b] = 1.
Entropy is ln of the Perron root of M, taken from one LAPACK
eigendecomposition and certified by the Collatz-Wielandt bracket of its
eigenvector.  The mixing gap is the smallest p with M^p entrywise positive
and realises the constant specification gap of a mixing SFT; it is found by
boolean squaring and binary lifting in O(k^3 log p), even when p is near
the Wielandt bound (k - 1)^2 + 1.  Transitive-but-not-mixing shifts
decompose into N cyclic classes, and the index sets record which classes a
target sequence hits at which residues mod N - the data that decides whether
intersected shrinking target sets can be nonempty at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Iterable, Sequence

import numpy as np

from .rates import (
    ShiftTarget,
    SymbolSequence,
    TimeSet,
    arithmetic_tail,
)


class SymbolicError(ValueError):
    pass


class EmptyShiftError(SymbolicError):
    pass


class NotMixingError(SymbolicError):
    def __init__(self, period: int):
        super().__init__(
            f"shift is periodic with period {period}; use period_decomposition instead"
        )
        self.period = period


class ReducibleShiftError(SymbolicError):
    def __init__(self, msg: str, components: tuple[tuple[int, ...], ...]):
        super().__init__(msg)
        self.components = components


class UndecidableTargetError(SymbolicError):
    """Raised when 'infinitely many i' cannot be decided from the input."""


@dataclass(frozen=True)
class ShiftOfFiniteType:
    """Vertex shift on {0..k-1} with 0/1 transition matrix; one- or two-sided."""

    transition: tuple[tuple[int, ...], ...]
    sided: str = "one"

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in self.transition)
        object.__setattr__(self, "transition", rows)
        k = len(rows)
        if k == 0 or any(len(r) != k for r in rows):
            raise SymbolicError("transition must be a nonempty square matrix")
        if any(v not in (0, 1) for row in rows for v in row):
            raise SymbolicError("transition entries must be 0 or 1")
        if all(v == 0 for row in rows for v in row):
            raise EmptyShiftError("zero transition matrix presents the empty shift")
        for a in range(k):
            if not any(rows[a]):
                raise SymbolicError(f"symbol {a} has no successor (all-zero row)")
            if not any(rows[b][a] for b in range(k)):
                raise SymbolicError(f"symbol {a} has no predecessor (all-zero column)")
        if self.sided not in ("one", "two"):
            raise SymbolicError("sided must be 'one' or 'two'")

    @property
    def alphabet_size(self) -> int:
        return len(self.transition)

    @cached_property
    def _symbols(self) -> frozenset[int]:
        return frozenset(range(self.alphabet_size))

    def word_admissible(self, word: Sequence[int]) -> bool:
        # in C loops: every symbol in the alphabet, then transition[a][b] per pair ab
        rows = self.transition
        return self._symbols.issuperset(word) and all(
            map(getitem, map(rows.__getitem__, word), word[1:])
        )

    def sequence_admissible(self, z: SymbolSequence) -> bool:
        """Admissibility of an eventually periodic one-sided stream."""
        probe = z.prefix(len(z.head) + 2 * len(z.cycle) + 1)
        return self.word_admissible(probe)


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


def strongly_connected_components(
    matrix: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Kosaraju SCCs of the directed graph with edge a->b iff matrix[a][b] > 0."""
    k = len(matrix)
    succ = [[b for b in range(k) if matrix[a][b]] for a in range(k)]
    pred = [[b for b in range(k) if matrix[b][a]] for a in range(k)]

    seen = [False] * k
    order: list[int] = []
    for root in range(k):
        if seen[root]:
            continue
        stack = [(root, iter(succ[root]))]
        seen[root] = True
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                order.append(node)
                stack.pop()

    comp = [-1] * k
    comps: list[tuple[int, ...]] = []
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        members = [root]
        comp[root] = len(comps)
        stack2 = [root]
        while stack2:
            node = stack2.pop()
            for nxt in pred[node]:
                if comp[nxt] < 0:
                    comp[nxt] = len(comps)
                    members.append(nxt)
                    stack2.append(nxt)
        comps.append(tuple(sorted(members)))
    return tuple(comps)


@dataclass(frozen=True)
class PeriodDecomposition:
    """Cyclic structure: N classes, every edge steps class c -> c+1 mod N."""

    period: int
    class_of: tuple[int, ...]


def digraph_period(matrix: Sequence[Sequence[int]]) -> PeriodDecomposition:
    """Cyclic structure of any strongly connected digraph (entries > 0 = edge).

    N = gcd of all cycle lengths; classes by BFS level differences mod N.
    """
    comps = strongly_connected_components(matrix)
    if len(comps) > 1:
        raise ReducibleShiftError(
            f"transition graph is reducible ({len(comps)} strongly connected "
            f"components: {comps})",
            comps,
        )
    k = len(matrix)
    level = [-1] * k
    level[0] = 0
    queue = [0]
    g = 0
    edges = []
    while queue:
        a = queue.pop()
        for b in range(k):
            if matrix[a][b]:
                edges.append((a, b))
                if level[b] < 0:
                    level[b] = level[a] + 1
                    queue.append(b)
    for a, b in edges:
        g = math.gcd(g, level[a] + 1 - level[b])
    n = g if g > 0 else 1
    classes = tuple(level[a] % n for a in range(k))
    return PeriodDecomposition(period=n, class_of=classes)


def period_decomposition(x: ShiftOfFiniteType) -> PeriodDecomposition:
    return digraph_period(x.transition)


def mixing_gap(x: ShiftOfFiniteType) -> int:
    """Smallest p >= 1 with M^p entrywise positive (primitivity index).

    Boolean squaring builds the zero patterns of M, M^2, M^4, ... until one
    is entrywise positive; binary lifting over those patterns then finds the
    least such p.  Positivity is monotone in p, since M has no zero row, so
    the lifting keeps the largest p whose power still has a zero entry.
    Products are float64 matmuls thresholded at > 0: every entry is a path
    count of at most k, exact in float64, and nothing wraps.  The cost is
    O(k^3 log p), with p <= (k - 1)^2 + 1 (Wielandt).

    A primitive matrix has a positive power by the Wielandt bound, so the
    squaring stops once it passes the bound; only then is the shift
    decomposed, to raise ReducibleShiftError or NotMixingError.
    """
    wielandt = (x.alphabet_size - 1) ** 2 + 1
    patterns = [np.array(x.transition, dtype=float)]  # pattern of M^(2^j)
    while not patterns[-1].all():
        if 1 << (len(patterns) - 1) >= wielandt:
            # not primitive; raises ReducibleShiftError when reducible
            raise NotMixingError(period_decomposition(x).period)
        square = patterns[-1] @ patterns[-1]
        patterns.append((square > 0).astype(float))
    p, reach = 0, np.eye(x.alphabet_size)  # reach = pattern of M^p, not positive
    for j in range(len(patterns) - 2, -1, -1):
        nxt = reach @ patterns[j]
        if not nxt.all():
            p, reach = p + (1 << j), (nxt > 0).astype(float)
    return p + 1


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def _perron_bracket(m: np.ndarray) -> tuple[float, float, float]:
    """(lo, rho, hi) for a nonnegative float matrix m with lo <= rho <= hi.

    LAPACK's eigenvalue of largest real part, which is rho for irreducible
    m, and its eigenvector v taken entrywise in absolute value.  For every
    positive v the Collatz-Wielandt bracket min_i (mv)_i / v_i <= rho <=
    max_i (mv)_i / v_i holds; each ratio is computed to within (k + 1)
    machine epsilons, so the bracket is widened by that relative slack.
    The LAPACK value is clamped into the bracket and, when it lies within
    the slack of an integer that the bracket contains, replaced by that
    integer, so integer roots (permutations, full shifts) come out exact.
    """
    values, vectors = np.linalg.eig(m)
    i = int(np.argmax(values.real))
    v = np.abs(vectors[:, i].real)
    if not (v > 0).all():
        raise SymbolicError("Perron eigenvector has a zero entry: the matrix is reducible")
    ratios = (m @ v) / v
    slack = (m.shape[0] + 1) * np.finfo(float).eps
    lo = float(ratios.min()) * (1.0 - slack)
    hi = float(ratios.max()) * (1.0 + slack)
    root = min(max(float(values[i].real), lo), hi)
    nearest = round(root)
    if lo <= nearest <= hi and abs(root - nearest) <= slack * nearest:
        root = float(nearest)
    return lo, root, hi


def perron_root(matrix: Sequence[Sequence[int]]) -> float:
    """Perron root of an irreducible nonnegative matrix.

    One LAPACK eigendecomposition, certified by the Collatz-Wielandt
    bracket of its eigenvector (``_perron_bracket``); on chord SFTs up to
    k = 200 ln rho is within 1e-14 of the exact root.  Reducible input whose
    Perron eigenvector has a zero entry raises SymbolicError.
    """
    m = np.asarray(matrix, dtype=float)
    if not m.any():
        raise EmptyShiftError("zero matrix has no Perron root")
    return _perron_bracket(m)[1]


def _log_spectral_radius(matrix: Sequence[Sequence[int]]) -> float:
    """ln of the largest Perron root among the strongly connected components."""
    comps = strongly_connected_components(matrix)
    if len(comps) == 1:
        return math.log(perron_root(matrix))
    best = 0.0
    for comp in comps:
        sub = [[matrix[a][b] for b in comp] for a in comp]
        if not any(any(row) for row in sub):
            continue
        best = max(best, perron_root(sub))
    if best <= 0.0:
        raise EmptyShiftError("no component carries a cycle")
    return math.log(best)


def sft_entropy(x: ShiftOfFiniteType) -> float:
    """ln of the Perron root; on reducible shifts, of the dominant component."""
    return _log_spectral_radius(x.transition)


def word_counts_ending(
    x: ShiftOfFiniteType, n_max: int, ends: Iterable[int]
) -> tuple[list[int], list[int]]:
    """(all, ending): exact numbers of admissible n-words for n = 1..n_max
    (entry n - 1), of all of them and of those whose last symbol is in ``ends``.

    Row-vector recurrence: u_1 = (1, ..., 1) and u_{n+1}[b] = sum of u_n[a]
    over the predecessors a of b, so u_n[b] counts the n-words ending in b,
    and both sequences are sums of the same u_n.  Big-integer additions,
    O(n_max * edges) of them.
    """
    if n_max < 1:
        raise SymbolicError("word length must be >= 1")
    k = x.alphabet_size
    last = sorted(set(ends))
    if any(not (0 <= b < k) for b in last):
        raise SymbolicError("end symbols must lie in the alphabet")
    preds = [[a for a in range(k) if x.transition[a][b]] for b in range(k)]
    u = [1] * k
    every, ending = [k], [len(last)]
    for _ in range(n_max - 1):
        u = [sum([u[a] for a in p]) for p in preds]
        every.append(sum(u))
        ending.append(sum([u[b] for b in last]))
    return every, ending


def log_count_words_many(x: ShiftOfFiniteType, lengths: Sequence[int]) -> list[float]:
    """ln of the number of admissible n-words for every n in ``lengths``,
    from one squaring walk.

    The word count is the entry sum of M^(n-1).  Binary powering rescales
    every product by its largest entry and carries the scale in log space,
    so nothing overflows.  The walk squares the normalized base once per
    bit of the largest exponent and multiplies each length's running
    product into it where that length's bit is set; every length sees the
    same float operations as it would powered alone, so the values do not
    depend on which other lengths are asked for.  The cost is
    O(k^3 (log max n + total set bits)), and only the current square is
    kept.  The accumulated relative error is of order (number of squarings)
    * machine epsilon: at n <= 300 on the test shifts it stays within 1e-12
    of the log of the exact count, and it is negligible next to the
    O(1/n) terms any consumer divides out.
    """
    if any(n < 1 for n in lengths):
        raise SymbolicError("word length must be >= 1")
    k = x.alphabet_size
    exps = [n - 1 for n in lengths]
    base = np.array(x.transition, dtype=float)
    s = base.max()
    base /= s
    log_base = math.log(s)  # base * exp(log_base) == M^(2^j)
    results = [np.eye(k) for _ in exps]
    log_results = [0.0] * len(exps)
    bits = max(exps, default=0).bit_length()
    for j in range(bits):
        for i, e in enumerate(exps):
            if e >> j & 1:
                result = results[i] @ base
                log_results[i] += log_base
                s = result.max()
                result /= s
                log_results[i] += math.log(s)
                results[i] = result
        if j + 1 < bits:
            base = base @ base
            log_base *= 2.0
            s = base.max()
            base /= s
            log_base += math.log(s)
    return [lr + math.log(r.sum()) for lr, r in zip(log_results, results)]


# ---------------------------------------------------------------------------
# Index sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSet:
    """Pairs (I1, I2): target hits class I1 at times = I2 mod N, infinitely often."""

    period: int
    pairs: frozenset[tuple[int, int]]

    @property
    def diffs(self) -> frozenset[int]:
        return frozenset((i1 - i2) % self.period for i1, i2 in self.pairs)


def _target_class(z: SymbolSequence, d: PeriodDecomposition) -> int:
    return d.class_of[z.symbol(0)]


def index_set(
    z: ShiftTarget, s: TimeSet, d: PeriodDecomposition
) -> IndexSet:
    """All (I1, I2) realised infinitely often by (z, S) against the N classes.

    Decidable because the target schedule is eventually periodic and the time
    set is arithmetic (possibly after an explicit finite prefix): the pair at
    time t depends only on t mod lcm(schedule period, N) once t clears the
    schedule preperiod, so one full cycle of the tail enumerates every pair
    that recurs.
    """
    tail = arithmetic_tail(s)
    if tail is None:
        raise UndecidableTargetError(
            "bounded time set: no pair occurs infinitely often"
        )

    n = d.period
    sched = math.lcm(z.schedule_period, n)
    window = sched // math.gcd(tail.step, sched)
    start_k = 0
    if tail.offset < z.schedule_preperiod:
        start_k = -((tail.offset - z.schedule_preperiod) // tail.step)

    pairs = set()
    for k in range(start_k, start_k + window):
        t = tail.offset + k * tail.step
        pairs.add((_target_class(z.target(t), d), t % n))
    if not pairs:
        raise UndecidableTargetError("empty pair set on an unbounded time set")
    return IndexSet(period=n, pairs=frozenset(pairs))


def indices_intersect(sets: Iterable[IndexSet]) -> int | None:
    """An element of the intersection of the difference sets, or None."""
    sets = list(sets)
    if not sets:
        raise SymbolicError("need at least one index set")
    n = sets[0].period
    if any(s.period != n for s in sets):
        raise SymbolicError("index sets disagree on the period N")
    common = set(sets[0].diffs)
    for s in sets[1:]:
        common &= s.diffs
    return min(common) if common else None


# ---------------------------------------------------------------------------
# Sofic shifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoficPresentation:
    """Labeled graph presentation; must be right-resolving at ingestion."""

    states: int
    edges: tuple[tuple[int, int, str], ...]
    sided: str = "one"

    def __post_init__(self) -> None:
        if self.states < 1:
            raise SymbolicError("need at least one state")
        edges = tuple((int(a), int(b), str(lbl)) for a, b, lbl in self.edges)
        object.__setattr__(self, "edges", edges)
        seen: set[tuple[int, str]] = set()
        out_deg = [0] * self.states
        for a, b, lbl in edges:
            if not (0 <= a < self.states and 0 <= b < self.states):
                raise SymbolicError(f"edge ({a},{b},{lbl!r}) leaves the state range")
            if (a, lbl) in seen:
                raise SymbolicError(
                    f"not right-resolving: state {a} has two outgoing "
                    f"edges labeled {lbl!r}"
                )
            seen.add((a, lbl))
            out_deg[a] += 1
        for st, deg in enumerate(out_deg):
            if deg == 0:
                raise SymbolicError(f"state {st} has no outgoing edge")
        if self.sided not in ("one", "two"):
            raise SymbolicError("sided must be 'one' or 'two'")

    def adjacency(self) -> list[list[int]]:
        m = [[0] * self.states for _ in range(self.states)]
        for a, b, _ in self.edges:
            m[a][b] += 1
        return m

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted({lbl for _, _, lbl in self.edges}))


def sofic_entropy(p: SoficPresentation) -> float:
    """ln Perron root of the presentation graph's adjacency matrix (of its
    dominant component when the graph is reducible)."""
    return _log_spectral_radius(p.adjacency())


def count_sofic_words(p: SoficPresentation, n: int) -> int:
    """Exact number of distinct admissible n-words of the sofic language.

    Test oracle: powers of the deterministic subset automaton reached from
    the full state set (right-resolving input makes each label a partial map
    on subsets, so distinct words correspond to distinct automaton paths).
    """
    if n < 0:
        raise SymbolicError("word length must be >= 0")
    step: dict[frozenset[int], dict[str, frozenset[int]]] = {}
    trans: dict[tuple[int, str], int] = {(a, lbl): b for a, b, lbl in p.edges}

    def successors(ss: frozenset[int]) -> dict[str, frozenset[int]]:
        if ss not in step:
            by_label: dict[str, set[int]] = {}
            for st in ss:
                for lbl in p.labels:
                    nxt = trans.get((st, lbl))
                    if nxt is not None:
                        by_label.setdefault(lbl, set()).add(nxt)
            step[ss] = {lbl: frozenset(v) for lbl, v in by_label.items()}
        return step[ss]

    counts: dict[frozenset[int], int] = {frozenset(range(p.states)): 1}
    for _ in range(n):
        nxt_counts: dict[frozenset[int], int] = {}
        for ss, c in counts.items():
            for tgt in successors(ss).values():
                nxt_counts[tgt] = nxt_counts.get(tgt, 0) + c
        counts = nxt_counts
    return sum(counts.values())
