"""Shift spaces: SFTs, sofic presentations, period, entropy, mixing and index sets.

A shift of finite type is encoded by a k x k 0/1 transition matrix M over the
symbol alphabet {0, ..., k-1}: the word ab is admissible iff M[a][b] = 1.
The shift theorems read two numbers of an irreducible shift, its period and
its entropy.  ``digraph_period`` is the one graph search of an analysis: two
searches from symbol 0, along the edges and against them, prove the graph
strongly connected (or raise ReducibleShiftError), and the levels of the
first give the period N and the N cyclic classes.  Entropy is ln of the
Perron root of M, found by Noda's iteration (a few LU solves of a shifted
M) and certified by a Collatz-Wielandt bracket whose ratios agree to
within (k + 1) machine epsilons.  The mixing gap is the
smallest p with M^p entrywise positive and realises the constant
specification gap of a mixing SFT; it is found by boolean squaring and
binary lifting in O(k^3 log p), even when p is near the Wielandt bound
(k - 1)^2 + 1.  Word counts stream exactly from a row-vector recurrence
with one entry per class of equal columns (``word_counts``) or come as logs
from a squaring walk that carries one row vector per length, rescaled by
exact powers of two (``log_count_words_many``).  The SFT's checks, the
period search and both counts read the matrix entries in C-level passes
(``map``, ``itemgetter``, bytes and bitsets, numpy), not one Python step
per entry.  A shift's array readers (the period search, the Perron root,
the mixing gap, both counts and the witness prefix check) share one
cached, read-only array image of its matrix, a view of the bytes copy of
the rows that construction checks, made on first read, so building a
shift imports no numpy.  The index sets record which
classes a target sequence hits at which residues mod N - the data that
decides whether intersected shrinking target sets can be nonempty at all.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import and_, getitem, index, itemgetter, le
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .rates import EventuallyPeriodic, TimeSet

if TYPE_CHECKING:
    import numpy as np


class SymbolicError(ValueError):
    pass


class EmptyShiftError(SymbolicError):
    pass


class NotMixingError(SymbolicError):
    """An irreducible shift of period > 1 where a mixing one is needed; the
    message defaults to the library's, and a command may name itself."""

    def __init__(self, period: int, message: str | None = None):
        super().__init__(message or f"shift is periodic with period {period}; use digraph_period instead")
        self.period = period


class ReducibleShiftError(SymbolicError):
    """Raised when the transition graph is not strongly connected."""


@dataclass(frozen=True)
class ShiftOfFiniteType:
    """Vertex shift on {0..k-1} with 0/1 transition matrix; one- or two-sided.

    ``transition`` is a tuple of int rows, checked at construction without
    numpy, in one C-level pass that reads every entry into a bytes copy of
    the rows.  ``matrix`` (uint8, a view of that copy), ``matrix_bool`` (a
    view of it) and ``matrix_float`` (one float64 copy) are its array
    image, read-only and built on first read; every numpy reader of the
    shift takes them rather than converting the rows again.
    """

    transition: tuple[tuple[int, ...], ...]
    sided: str = "one"

    def __post_init__(self) -> None:
        # C-level passes over the entries; only the rows are looped in Python
        rows = tuple(self.transition)
        k = len(rows)
        if k == 0 or set(map(len, rows)) != {k}:
            raise SymbolicError("transition must be a nonempty square matrix")
        try:
            # each entry read by operator.index: a float or a string raises
            # TypeError, where int() would truncate or parse it, and an entry
            # outside 0..255 raises ValueError
            flat = bytes(chain.from_iterable(map(_plain, rows)))
        except (TypeError, ValueError):
            raise SymbolicError("transition entries must be 0 or 1") from None
        if flat.translate(None, b"\x00\x01"):
            raise SymbolicError("transition entries must be 0 or 1")
        rows = tuple(map(tuple, _cut(flat, k)))
        object.__setattr__(self, "transition", rows)
        object.__setattr__(self, "_flat", flat)
        has_successor = list(map(any, rows))
        if not any(has_successor):
            raise EmptyShiftError("zero transition matrix presents the empty shift")
        has_both = list(map(and_, has_successor, map(any, zip(*rows))))
        if False in has_both:
            # the lowest symbol with a zero row or column is named, its row first
            a = has_both.index(False)
            if not has_successor[a]:
                raise SymbolicError(f"symbol {a} has no successor (all-zero row)")
            raise SymbolicError(f"symbol {a} has no predecessor (all-zero column)")
        if self.sided not in ("one", "two"):
            raise SymbolicError("sided must be 'one' or 'two'")

    @property
    def alphabet_size(self) -> int:
        return len(self.transition)

    @cached_property
    def _symbols(self) -> frozenset[int]:
        return frozenset(range(self.alphabet_size))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The transition matrix as a read-only uint8 array over the bytes
        copy of the rows that construction checked; numpy is imported only
        on first use."""
        import numpy as np

        k = self.alphabet_size
        return np.frombuffer(self._flat, dtype=np.uint8).reshape(k, k)

    @cached_property
    def matrix_bool(self) -> np.ndarray:
        """``matrix`` viewed as bool, read-only: the pair table of ``word_admissible``."""
        return self.matrix.view(bool)

    @cached_property
    def matrix_float(self) -> np.ndarray:
        """``matrix`` as float64, read-only: the operand of every matmul."""
        m = self.matrix.astype(float)
        m.flags.writeable = False
        return m

    def word_admissible(self, word: Sequence[int] | np.ndarray) -> bool:
        """Whether every symbol of ``word`` lies in the alphabet and
        transition[a][b] = 1 for each pair ab of consecutive symbols.

        A numpy integer array (a witness prefix) takes one range check and
        one gather of all its pairs from ``matrix_bool``.  Any other
        sequence (the stream probes of config loading, hand-built words) is
        checked in C loops over the tuple rows, and that path does not
        import numpy.
        """
        if hasattr(word, "dtype"):
            if len(word) and not (word.min() >= 0 and word.max() < self.alphabet_size):
                return False
            return bool(self.matrix_bool[word[:-1], word[1:]].all())
        rows = self.transition
        return self._symbols.issuperset(word) and all(
            map(getitem, map(rows.__getitem__, word), word[1:])
        )

    def sequence_admissible(self, z: EventuallyPeriodic) -> bool:
        """Admissibility of an eventually periodic one-sided stream."""
        probe = z.prefix(len(z.head) + 2 * len(z.cycle) + 1)
        return self.word_admissible(probe)


def _plain(row: Sequence[int]) -> Sequence[int]:
    """A numpy array's entries as Python scalars, by ``tolist`` (numpy 2's
    bools have no ``__index__``); any other row as it is."""
    tolist = getattr(row, "tolist", None)
    return row if tolist is None else tolist()


def _cut(flat: bytes, k: int) -> Iterator[bytes]:
    """The k rows of a k x k matrix stored row by row in ``flat``, one byte an entry."""
    return map(flat.__getitem__, map(slice, range(0, k * k, k), range(k, k * k + 1, k)))


def _row_ints(row: Sequence[int]) -> tuple[int, ...]:
    """A row's entries as Python ints, read by ``operator.index``: a float or
    a string raises TypeError, where ``int()`` would truncate or parse it."""
    return tuple(map(index, _plain(row)))


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodDecomposition:
    """Cyclic structure: N classes, every edge steps class c -> c+1 mod N."""

    period: int
    class_of: tuple[int, ...]


def digraph_period(matrix: Sequence[Sequence[int]] | np.ndarray) -> PeriodDecomposition:
    """Cyclic structure of a strongly connected digraph (entries > 0 = edge).

    A search from symbol 0 along the edges gives every symbol it reaches a
    level, and a search along the reversed edges marks the symbols that
    reach symbol 0.  The graph is strongly connected iff both reach every
    symbol; otherwise ReducibleShiftError names a symbol one of them misses.
    The period N is the gcd of level[a] + 1 - level[b] over the edges ab,
    and the classes are the levels mod N (Lind & Marcus, section 4.5).

    The matrix is read as one boolean array: an SFT's cached
    ``matrix_bool`` as it is, rows of ints (a presentation's adjacency,
    whose parallel edges count past a byte) by one conversion.  Rows and
    columns are Python-int bitsets with one byte per symbol, cut from the
    array's bytes, so the k^2 entries are read in C.  A searched symbol
    takes its unseen successors (in increasing order, so the levels are
    those of a plain scan) by one AND, so Python steps O(k) times, each on
    a bitset of k bytes.  The gcd is one numpy reduction over the array's
    edges.
    """
    import numpy as np

    edges = np.asarray(matrix, dtype=bool)
    k = len(edges)
    flat = edges.tobytes()
    level, missed = _search([int.from_bytes(flat[a * k : a * k + k], "little") for a in range(k)])
    if missed:
        raise ReducibleShiftError(f"graph is reducible: symbol {_lowest_symbol(missed)} cannot be reached from symbol 0")
    _, missed = _search([int.from_bytes(flat[b::k], "little") for b in range(k)])
    if missed:
        raise ReducibleShiftError(f"graph is reducible: symbol {_lowest_symbol(missed)} cannot reach symbol 0")
    a, b = edges.nonzero()
    levels = np.array(level)
    n = int(np.gcd.reduce(levels[a] + 1 - levels[b])) or 1  # 0: a single symbol without a loop
    return PeriodDecomposition(period=n, class_of=tuple(v % n for v in level))


def _search(adjacent: list[int]) -> tuple[list[int], int]:
    """A search from symbol 0 along the bitsets ``adjacent`` (one byte per
    symbol): each symbol's level (-1 where not reached) and the bitset of
    the symbols it does not reach."""
    level = [0] + [-1] * (len(adjacent) - 1)
    unseen = int.from_bytes(b"\0" + b"\1" * (len(adjacent) - 1), "little")
    stack = [0]
    while stack:
        a = stack.pop()
        new = adjacent[a] & unseen
        unseen ^= new
        while new:
            low = new & -new
            new ^= low
            b = low.bit_length() >> 3
            level[b] = level[a] + 1
            stack.append(b)
    return level, unseen


def _lowest_symbol(mask: int) -> int:
    """The least symbol of a nonzero bitset with one byte per symbol (bit
    8b for symbol b)."""
    return (mask & -mask).bit_length() >> 3


def mixing_gap(x: ShiftOfFiniteType) -> int:
    """Smallest p >= 1 with M^p entrywise positive (primitivity index).

    Boolean squaring builds the zero patterns of M, M^2, M^4, ... until one
    is entrywise positive; binary lifting over those patterns then finds the
    least such p.  Positivity is monotone in p, since M has no zero row, so
    the lifting keeps the largest p whose power still has a zero entry.  It
    starts from the highest square with a zero entry, which is such a power.
    Products are float64 matmuls of 0/1 patterns, clipped to 1 in place:
    every entry is a path count of at most k, exact in float64, and nothing
    wraps.  The first pattern is the shift's read-only ``matrix_float``;
    every later one is a fresh product.  The cost is O(k^3 log p), with
    p <= (k - 1)^2 + 1 (Wielandt).

    A primitive matrix has a positive power by the Wielandt bound, so the
    squaring stops once it passes the bound; only then is the shift
    decomposed, to raise ReducibleShiftError or NotMixingError.
    """
    import numpy as np

    wielandt = (x.alphabet_size - 1) ** 2 + 1
    patterns = [x.matrix_float]  # pattern of M^(2^j)
    while not patterns[-1].all():
        if 1 << (len(patterns) - 1) >= wielandt:
            # not primitive; raises ReducibleShiftError when reducible
            raise NotMixingError(digraph_period(x.matrix_bool).period)
        square = patterns[-1] @ patterns[-1]
        patterns.append(np.minimum(square, 1.0, out=square))
    top = len(patterns) - 2  # the highest square with a zero entry, if any
    if top < 0:
        return 1
    p, reach = 1 << top, patterns[top]  # reach = pattern of M^p, not positive
    for j in range(top - 1, -1, -1):
        nxt = reach @ patterns[j]
        if not nxt.all():
            p, reach = p + (1 << j), np.minimum(nxt, 1.0, out=nxt)
    return p + 1


# ---------------------------------------------------------------------------
# Perron root and word counts
# ---------------------------------------------------------------------------


# Steps before _perron_bracket gives up on an open bracket.  Irreducible
# shifts need at most 23 (a clique joined to a long path); a Perron vector
# that spans more than the float range underflows within about 25
_NODA_STEPS = 64


def _perron_bracket(m: np.ndarray) -> tuple[float, float, float]:
    """(lo, rho, hi) for a nonnegative float matrix m with lo <= rho <= hi,
    where the bracket has closed: hi - lo <= 3 (k + 1) eps hi.

    Noda's iteration (Numer. Math. 17, 1971) from v = 1.  For every
    positive v and every nonnegative m, the Collatz-Wielandt bracket
    min_i (mv)_i / v_i <= rho <= max_i (mv)_i / v_i holds.  Each ratio is
    computed to within (k + 1) machine epsilons, so the bracket is widened
    by that relative slack.  While the ratios spread wider than the slack,
    one LU solve of (hi I - m) w = v at the widened upper end hi, and
    v = w / max w.  As hi bounds rho from above, hi I - m is an M-matrix,
    nonsingular unless hi = rho, and in exact arithmetic w >= v / hi > 0.
    For irreducible m, hi falls to rho quadratically (Elsner, Numer. Math.
    26, 1976) and v tends to the Perron vector.

    The LU solve is accurate only in norm, so near the Perron vector its
    small entries can carry errors wider than the slack, and the solve
    then stops lowering hi (it stays put or swings) with the bracket still
    open, though in exact arithmetic every step lowers it.  From the first
    ratio max that is not below the one before, every later step
    takes w = mv + v instead: a power step on the primitive m + I, whose
    nonnegative sums keep each entry of v to a few epsilons, relative.
    In exact arithmetic it never widens the bracket, and for irreducible m
    it closes it at the rate of m + I's second eigenvalue.

    SymbolicError is raised on a zero entry of mv, which is a zero row and
    makes m reducible; on an entry of w that is not positive, which is
    float64 underflow; and on a bracket still open after ``_NODA_STEPS``
    steps.
    rho is the median ratio (the upper one for even k); on the chord SFTs
    it prints ln rho right to 12 digits more often than the midpoint or the
    mean of the ratios.  When it lies within the slack of an integer
    that the bracket contains, it is that integer, so integer roots
    (permutations, full shifts) come out exact.
    """
    import numpy as np

    k = m.shape[0]
    slack = (k + 1) * sys.float_info.epsilon
    eye = np.eye(k)
    v = np.ones(k)
    top, stalled = math.inf, False
    for step in range(_NODA_STEPS + 1):
        mv = m @ v
        if not mv.all():
            raise SymbolicError(f"row {int(np.argmin(mv))} is zero: the matrix is reducible")
        ratios = mv / v
        r_lo, r_hi = float(ratios.min()), float(ratios.max())
        lo, hi = r_lo * (1.0 - slack), r_hi * (1.0 + slack)
        if r_hi - r_lo <= slack * r_hi:
            break
        if step == _NODA_STEPS:
            raise SymbolicError(
                f"Collatz-Wielandt bracket [{lo!r}, {hi!r}] did not close after {step} Noda steps"
            )
        stalled = stalled or r_hi >= top
        top = r_hi
        w = mv + v if stalled else np.linalg.solve(hi * eye - m, v)
        w /= w.max()
        if not w.min() > 0.0:
            raise SymbolicError(
                f"Perron vector entry {int(np.argmin(w))} underflows float64 after {step + 1} Noda steps"
            )
        v = w
    root = float(np.sort(ratios)[k // 2])
    nearest = round(root)
    if lo <= nearest <= hi and abs(root - nearest) <= slack * nearest:
        root = float(nearest)
    return lo, root, hi


def perron_root(matrix: Sequence[Sequence[int]]) -> float:
    """Spectral radius rho of a nonnegative integer matrix, for the Perron
    root of an irreducible one.

    Noda's iteration (``_perron_bracket``) takes a few LU solves: at most 8
    on the cycles with a chord up to k = 200, and at most 23 on a clique
    joined to a path up to k = 200.  A value is returned only when its
    Collatz-Wielandt bracket has closed, and then it is rho to within
    3 (k + 1) machine epsilons, relative.  Every irreducible matrix tested
    closes its bracket.  Otherwise SymbolicError is raised: "reducible"
    only for a zero row, a Perron vector that underflows float64 is named
    as such, and a bracket that stays open (seen only on reducible
    matrices) is named with its ends.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    if not m.any():
        raise EmptyShiftError("zero matrix has no Perron root")
    return _perron_bracket(m)[1]


def word_counts(x: ShiftOfFiniteType, n_max: int, ends: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Exact (all_n, ending_n) for n = 1..n_max, streamed: the numbers of
    admissible n-words, of all of them and of those whose last symbol is in
    ``ends``.  Bad arguments raise here, not at the first pair.

    Row-vector recurrence: u_1 = (1, ..., 1) and u_{n+1}[b] = sum of u_n[a]
    over the predecessors a of b, so u_n[b] counts the n-words ending in b,
    and both numbers are sums of the same u_n.  Symbols with equal columns
    have the same predecessors, so they end equally many n-words for every
    n: merging them is an out-amalgamation (Lind & Marcus, section 2.4),
    and u_n keeps one entry per class of equal columns.  The classes are
    numbered by first appearance, from one pass over the columns of the
    shift's array image (bytes, whose hashes are cached).  Each class
    gathers the entries of its predecessors' classes, a class repeated once
    per predecessor in it, by one ``itemgetter`` built up front.  A class
    with more than k/2 predecessors gathers its non-predecessors instead
    and subtracts their sum from the level total, which the level before
    computed; the counts are exact ints either way.  The total and the
    ending sum count each class once per member.  A level costs k plus the
    sum over column classes of min(predecessors, non-predecessors)
    big-integer additions, at most k + k^2/2, and Python steps once per
    class, not once per edge.  When no two columns are equal this is the
    recurrence over symbols, step for step.  Only the current level is kept.
    """
    if n_max < 1:
        raise SymbolicError("word length must be >= 1")
    k = x.alphabet_size
    last = sorted(set(ends))
    if any(not (0 <= b < k) for b in last):
        raise SymbolicError("end symbols must lie in the alphabet")
    columns = list(_cut(x.matrix.T.tobytes(), k))
    # number[col]: the class of the symbols whose column is col; members[b]: b's class
    number = dict(zip(dict.fromkeys(columns), count()))
    members = list(map(number.__getitem__, columns))
    # (gather, complement): a class's entry is gather(v) summed, or the total less it
    classes = [
        (_gather(list(compress(members, col.translate(_FLIP)))), True)
        if 2 * col.count(1) > k
        else (_gather(list(compress(members, col))), False)
        for col in number
    ]
    # sum(v) counts each class once; repeats holds each further member's class,
    # the members whose class is no newer than the newest one before them
    repeats = _gather(list(compress(members, map(le, members, chain([-1], accumulate(members, max))))))
    ending = _gather(list(map(members.__getitem__, last)))

    def walk() -> Iterator[tuple[int, int]]:
        v = [1] * len(classes)
        total = k
        yield total, len(last)
        for _ in range(n_max - 1):
            v = [total - sum(gather(v)) if complement else sum(gather(v)) for gather, complement in classes]
            total = sum(repeats(v), sum(v))  # sum(v) is the start: one call fewer per level
            yield total, sum(ending(v))

    return walk()


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # a 0/1 column's complement, by bytes.translate


def _gather(indices: list[int]) -> itemgetter:
    """An itemgetter of ``indices`` that always returns a sequence: a lone
    index or none becomes a slice, where itemgetter would return a bare item
    or raise."""
    if len(indices) > 1:
        return itemgetter(*indices)
    i = indices[0] if indices else 0
    return itemgetter(slice(i, i + len(indices)))


_LN2 = math.log(2.0)


def log_count_words_many(x: ShiftOfFiniteType, lengths: Sequence[int]) -> list[float]:
    """ln of the number of admissible n-words for every n in ``lengths``,
    from one squaring walk.

    N_n = 1^T M^(n-1) 1 (Lind & Marcus, section 4.1), so each length keeps
    one row vector, not a running product.  The walk squares the base once
    per bit of the largest exponent, B_j = M^(2^j), and at bit j multiplies
    the vector of each length whose exponent has bit j set by B_j: O(k^3
    log max n) for the squarings plus O(k^2) per set bit, in O(L k) memory.
    Every rescale, of B_j or of a vector, brings the largest entry into
    [1/2, 1) by a power of two (``frexp``/``ldexp``), so it is exact.  A
    length's exponent E sums its vector's rescales and the exponents of the
    B_j at its set bits, which pass 2^63 near n = 2^72 and are summed as
    Python ints (``_sums_over_set_bits``); ln N_n = E ln 2 + ln(sum of the
    vector).  Each product is one (1, k) @ (k, k) slice of a batched matmul,
    the shape a length walked alone sees, so each value is bit for bit that
    of its length walked alone.  So a length that repeats in ``lengths`` is
    walked once and its value copied.  Which exponents have bit j set is
    read from one bit table, so Python steps O(log max n) times, not once
    per length and bit.

    A relative rounding d in B_j moves ln N_n by about d n / 2^j against
    ln N_n ~ n h, and the first squarings are exact while M^(2^j) fits in
    53 bits.  Near n = 2^70 the relative error is about one machine epsilon
    at most on the full shifts and the golden mean (against mpmath); at
    n <= 300 the value is within 1e-12 of the log of the exact count.
    """
    import numpy as np

    if any(n < 1 for n in lengths):
        raise SymbolicError("word length must be >= 1")
    k = x.alphabet_size
    distinct = list(dict.fromkeys(lengths))
    exps = [n - 1 for n in distinct]  # Python ints: they reach 2^72, past int64
    bits = max(exps, default=0).bit_length()
    width = (bits + 7) // 8
    raw = np.frombuffer(b"".join(map(int.to_bytes, exps, repeat(width), repeat("little"))), dtype=np.uint8)
    # bit_table[j, i]: bit j of exps[i] is set
    bit_table = np.unpackbits(raw.reshape(len(exps), width).T, axis=0, count=bits, bitorder="little").view(bool)
    # parts[j]: the lengths with bit j set, cut from one flat scan of the table
    members = np.flatnonzero(bit_table) % len(exps)
    ends = np.cumsum(bit_table.sum(axis=1)).tolist()
    parts = [members[a:b] for a, b in zip([0, *ends], ends)]
    vectors = np.ones((len(exps), 1, k))
    vector_exps = np.zeros(len(exps), dtype=np.int64)
    base = x.matrix_float  # read-only; the first squaring makes a new array
    base_exp = 0  # B_j = base * 2^base_exp
    base_exps = []
    for j, part in enumerate(parts):
        if j:
            base = base @ base
            _, e = np.frexp(base.max())
            np.ldexp(base, -e, out=base)
            base_exp = 2 * base_exp + int(e)
        base_exps.append(base_exp)
        prod = np.matmul(vectors.take(part, axis=0), base)
        _, e = np.frexp(prod.max(axis=2, keepdims=True))
        vectors[part] = np.ldexp(prod, -e)
        vector_exps[part] += e.reshape(-1)
    totals = _sums_over_set_bits(bit_table, base_exps)
    # each vector's entry sum, the pairwise sum of its k contiguous entries that v.sum() takes
    sums = vectors.reshape(len(exps), k).sum(axis=1).tolist()
    logs = dict(zip(distinct, ((t + v) * _LN2 + math.log(s) for t, v, s in zip(totals, vector_exps.tolist(), sums))))
    return [logs[n] for n in lengths]


def _sums_over_set_bits(bit_table: np.ndarray, values: list[int]) -> list[int]:
    """The exact sum of values[j] over the set bits j of each column i of
    the boolean ``bit_table``, for every i, as Python ints.  The values are
    cut into 32-bit digits, the top one signed, so every sum of digits fits
    an int64."""
    import numpy as np

    shifts = range(0, 32 * (max(map(int.bit_length, values), default=0) // 32 + 1), 32)
    v = np.array(values, dtype=object)
    digits = np.stack([(v >> s) & 0xFFFFFFFF for s in shifts[:-1]] + [v >> shifts[-1]])
    digit_sums = digits.astype(np.int64) @ bit_table.astype(np.int64)
    return (np.array([1 << s for s in shifts], dtype=object) @ digit_sums.astype(object)).tolist()


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


def index_set(
    z: EventuallyPeriodic, s: TimeSet, d: PeriodDecomposition
) -> IndexSet:
    """All (I1, I2) realised infinitely often by (z, S) against the N classes.

    Decidable because the target schedule is eventually periodic and the time
    set is arithmetic (possibly after an explicit finite prefix): the pair at
    time t depends only on t mod lcm(schedule period, N) once t clears the
    schedule preperiod, so one full cycle of the tail enumerates every pair
    that recurs.  The window holds sched // gcd(step, sched) >= 1 times, so
    the set is never empty.
    """
    n = d.period
    sched = math.lcm(len(z.cycle), n)
    window = sched // math.gcd(s.step, sched)
    start_k = 0
    if s.offset < len(z.head):
        start_k = -((s.offset - len(z.head)) // s.step)

    pairs = set()
    for k in range(start_k, start_k + window):
        t = s.offset + k * s.step
        pairs.add((d.class_of[z.at(t).at(0)], t % n))
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
        try:
            object.__setattr__(self, "states", index(self.states))
        except TypeError:  # a float or a string, which int() would truncate or parse
            raise SymbolicError("states must be an integer") from None
        if self.states < 1:
            raise SymbolicError("need at least one state")
        try:
            edges = tuple((*_row_ints((a, b)), lbl) for a, b, lbl in self.edges)
        except TypeError:  # a float or a string, which int() would truncate or parse
            raise SymbolicError("edge states must be integers") from None
        if not all(isinstance(lbl, str) for _, _, lbl in edges):
            raise SymbolicError("edge labels must be strings")
        object.__setattr__(self, "edges", edges)
        seen: set[tuple[int, str]] = set()
        for a, b, lbl in edges:
            if not (0 <= a < self.states and 0 <= b < self.states):
                raise SymbolicError(f"edge ({a},{b},{lbl!r}) leaves the state range")
            if (a, lbl) in seen:
                raise SymbolicError(
                    f"not right-resolving: state {a} has two outgoing "
                    f"edges labeled {lbl!r}"
                )
            seen.add((a, lbl))
        sources = {a for a, _ in seen}
        dead = min(set(range(len(sources) + 1)) - sources)  # the lowest state without an edge
        if dead < self.states:
            raise SymbolicError(f"state {dead} has no outgoing edge")
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
