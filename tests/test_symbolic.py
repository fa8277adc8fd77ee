import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from shrinktarget import cli, symbolic
from shrinktarget.cli import system_facts
from shrinktarget.rates import EventuallyPeriodic, TimeSet
from shrinktarget.symbolic import (
    EmptyShiftError,
    IndexSet,
    NotMixingError,
    ReducibleShiftError,
    ShiftOfFiniteType,
    SoficPresentation,
    SymbolicError,
    digraph_period,
    index_set,
    indices_intersect,
    log_count_words_many,
    mixing_gap,
    perron_root,
    word_counts,
    _perron_bracket,
)
from shrinktarget.systems import _charpoly
from shift_strategies import (
    clique_with_path,
    count_words,
    entropy,
    full_shift,
    golden_mean_shift,
    irreducible_shifts,
    sft_as_sofic,
)

try:
    import mpmath
except ImportError:
    mpmath = None

GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)  # 0.48121182505960347
FLIP = ShiftOfFiniteType(((0, 1), (1, 0)))  # period-2 permutation shift


def brute_force_words(shift, n):
    """Independent oracle: enumerate admissible words by direct product scan."""
    k = shift.alphabet_size
    return [w for w in product(range(k), repeat=n) if shift.word_admissible(w)]


def per_length_log_count(shift, n):
    """One length walked alone, the loop log_count_words_many shares: the
    row vector of ones times the squares B_j = M^(2^j) at the set bits j of
    n - 1, every rescale an exact power of two whose exponent is summed as a
    Python int."""
    e = n - 1
    base = np.array(shift.transition, dtype=float)
    base_exp = 0
    v = np.ones((1, shift.alphabet_size))
    exp = 0
    while e:
        if e & 1:
            v = v @ base
            _, f = np.frexp(v.max())
            v = np.ldexp(v, -f)
            exp += base_exp + int(f)
        e >>= 1
        if e:
            base = base @ base
            _, f = np.frexp(base.max())
            base = np.ldexp(base, -f)
            base_exp = 2 * base_exp + int(f)
    return exp * math.log(2.0) + math.log(v.sum())


def per_column_word_counts(shift, n_max, ends):
    """The recurrence word_counts streams, one Python sum over each column's
    predecessors per level: the reference its gathered sums must equal."""
    k = shift.alphabet_size
    last = sorted(set(ends))
    preds = [[a for a in range(k) if shift.transition[a][b]] for b in range(k)]
    u = [1] * k
    yield k, len(last)
    for _ in range(n_max - 1):
        u = [sum([u[a] for a in p]) for p in preds]
        yield sum(u), sum([u[b] for b in last])


@st.composite
def shaped_shifts(draw, max_k=24):
    """SFTs whose columns mix the shapes word_counts gathers apart: sparse,
    dense (summed as a complement), one predecessor, one non-predecessor,
    full, and a copy of an earlier column (merged into its class).  A zero
    row or column gets its diagonal entry."""
    k = draw(st.integers(1, max_k))
    columns = []
    for b in range(k):
        shape = draw(st.sampled_from(["sparse", "dense", "one", "all but one", "full", "copy"]))
        if shape == "copy" and b:
            column = list(columns[draw(st.integers(0, b - 1))])
        elif shape in ("one", "all but one"):
            i = draw(st.integers(0, k - 1))
            column = [int((a == i) == (shape == "one")) for a in range(k)]
        else:
            cut = {"sparse": 2, "dense": 8, "full": 10, "copy": 5}[shape]
            column = [int(d < cut) for d in draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))]
        column[b] |= not any(column)
        columns.append(column)
    rows = [list(row) for row in zip(*columns)]
    for a, row in enumerate(rows):
        row[a] |= not any(row)
    return ShiftOfFiniteType(tuple(map(tuple, rows)))


def grown_words(shift, n):
    """Admissible n-words grown one admissible symbol at a time."""
    k = shift.alphabet_size
    words = [(a,) for a in range(k)]
    for _ in range(n - 1):
        words = [w + (b,) for w in words for b in range(k) if shift.transition[w[-1]][b]]
    return words


# the 60-symbol primitive SFT: a -> b allowed iff (7a + 3b) % 5 != 0
SFT60 = ShiftOfFiniteType(
    tuple(tuple(int((7 * a + 3 * b) % 5 != 0) for b in range(60)) for a in range(60))
)


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


class TestEntropy:
    def test_full_shift(self):
        assert entropy(full_shift(2)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_golden_mean(self):
        assert entropy(golden_mean_shift()) == pytest.approx(
            GOLDEN_ENTROPY, abs=1e-9
        )

    def test_permutation_matrix(self):
        assert entropy(FLIP) == pytest.approx(0.0, abs=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(EmptyShiftError):
            ShiftOfFiniteType(((0, 0), (0, 0)))

    @settings(max_examples=60, deadline=None)
    @given(irreducible_shifts(max_k=12))
    def test_decomposed_shift_entropy_is_bitwise_the_same(self, shift):
        # the CLI's analysis is ln of the Perron root, not a rounding of it
        assert system_facts(shift).h_top == entropy(shift)

    def test_one_component_search_per_shift_analysis(self, monkeypatch):
        # the period's search is the analysis's only graph search; cli reads
        # it by name, and symbolic's own callers through the module
        calls = []
        search = symbolic.digraph_period
        for module in (cli, symbolic):
            monkeypatch.setattr(module, "digraph_period", lambda m: calls.append(m) or search(m))
        even = SoficPresentation(states=2, edges=((0, 0, "1"), (0, 1, "0"), (1, 0, "0")))
        for system in (even, golden_mean_shift()):
            calls.clear()
            system_facts(system)
            assert len(calls) == 1, system

    @settings(max_examples=60, deadline=None)
    @given(irreducible_shifts(max_k=12))
    def test_sofic_analysis_is_the_sft_analysis(self, shift):
        # the identity labeling's graph is the transition graph
        sofic, sft = system_facts(sft_as_sofic(shift)), system_facts(shift)
        assert sofic.h_top == sft.h_top and sofic.decomposition.period == sft.decomposition.period

    def test_perron_root_values(self):
        assert perron_root(((1, 1), (1, 1))) == pytest.approx(2.0, abs=1e-10)
        assert perron_root(((1, 1), (1, 0))) == pytest.approx(
            (1.0 + math.sqrt(5.0)) / 2.0, abs=1e-10
        )


class TestCountWords:
    def test_full_shift_power(self):
        assert count_words(full_shift(2), 10) == 1024

    def test_golden_mean_small(self):
        # enumerated directly: 000, 001, 010, 100, 101
        words = brute_force_words(golden_mean_shift(), 3)
        assert len(words) == 5
        assert count_words(golden_mean_shift(), 3) == 5

    def test_single_letters(self):
        assert count_words(golden_mean_shift(), 1) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_brute_force(self, n):
        for shift in (golden_mean_shift(), FLIP, full_shift(3)):
            assert count_words(shift, n) == len(brute_force_words(shift, n))

    def test_growth_approaches_entropy(self):
        w60 = count_words(golden_mean_shift(), 60)
        assert abs(math.log(w60) / 60.0 - GOLDEN_ENTROPY) < 0.01

    def test_log_count_words_consistent(self):
        g = golden_mean_shift()
        for n in (40, 4096, 5000, 6000):
            assert log_count_words_many(g, [n])[0] == pytest.approx(
                math.log(count_words(g, n)), rel=1e-10
            )

    @settings(max_examples=80, deadline=None)
    @given(irreducible_shifts(), st.data())
    def test_word_counts_match_enumeration(self, shift, data):
        k = shift.alphabet_size
        n_max = 10 if k == 1 else min(10, int(math.log(20_000) / math.log(k)))
        ends = data.draw(st.none() | st.sets(st.integers(0, k - 1)))
        keep = range(k) if ends is None else ends
        pairs = list(word_counts(shift, n_max, () if ends is None else ends))
        counts = [pair[0 if ends is None else 1] for pair in pairs]
        assert len(counts) == n_max
        for n, count in enumerate(counts, start=1):
            assert count == sum(1 for w in grown_words(shift, n) if w[-1] in keep)
        if ends is None:
            assert counts[-1] == count_words(shift, n_max)

    def test_word_counts_rejects_bad_input(self):
        # at the call, not at the first pair
        with pytest.raises(SymbolicError, match=">= 1"):
            word_counts(golden_mean_shift(), 0, ())
        with pytest.raises(SymbolicError, match="alphabet"):
            word_counts(golden_mean_shift(), 3, [2])

    @pytest.mark.parametrize("name", ["sft60", "chord80", "full1", "full2", "full3", "full7"])
    def test_word_counts_equal_per_column_recurrence(self, name):
        # SFT60's columns have 48 predecessors (the complement path) and fall
        # into 5 classes of 12 equal columns, the chord's have one or two
        # predecessors and are all distinct, and a full shift's are one class
        shifts = {"sft60": SFT60, "chord80": ShiftOfFiniteType(_cycle_with_chord(80))}
        shift = shifts[name] if name in shifts else full_shift(int(name[4:]))
        k = shift.alphabet_size
        before_0 = [a for a in range(k) if shift.transition[a][0]]
        for ends in ((), (k - 1,), range(k), before_0):
            got = list(word_counts(shift, 80, ends))
            assert got == list(per_column_word_counts(shift, 80, ends))
            assert all(type(v) is int for pair in got for v in pair)

    def test_word_counts_column_shapes(self):
        # by column: full, one predecessor, one non-predecessor, two, four
        columns = ((1, 1, 1, 1, 1), (0, 0, 1, 0, 0), (0, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, 1, 0, 1, 1))
        for rows in (tuple(zip(*columns)), ((1,),), ((0, 1), (1, 1))):
            shift = ShiftOfFiniteType(rows)
            k = shift.alphabet_size
            for ends in ((), (0,), (k - 1,), range(k)):
                assert list(word_counts(shift, 12, ends)) == list(per_column_word_counts(shift, 12, ends))

    @settings(max_examples=80, deadline=None)
    @given(shaped_shifts(), st.data())
    def test_word_counts_equal_per_column_recurrence_drawn(self, shift, data):
        k = shift.alphabet_size
        ends = data.draw(
            st.sampled_from([(), range(k)]) | st.integers(0, k - 1).map(lambda b: (b,)) | st.sets(st.integers(0, k - 1))
        )
        n_max = data.draw(st.integers(1, 30))
        assert list(word_counts(shift, n_max, ends)) == list(per_column_word_counts(shift, n_max, ends))

    @settings(max_examples=60, deadline=None)
    @given(irreducible_shifts(), st.integers(min_value=1, max_value=300))
    def test_log_count_words_matches_exact_log(self, shift, n):
        # lengths up to 300 used to be counted exactly inside the log count
        exact = math.log(count_words(shift, n))
        assert log_count_words_many(shift, [n])[0] == pytest.approx(exact, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 130, 299, 300])
    def test_log_count_words_60_symbols(self, n):
        exact = math.log(count_words(SFT60, n))
        assert log_count_words_many(SFT60, [n])[0] == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(irreducible_shifts(), st.lists(st.integers(1, 2**70), min_size=1, max_size=8))
    def test_shared_walk_equals_per_length_powering(self, shift, lengths):
        # one walk for all lengths, bit for bit the values of one walk each
        shared = log_count_words_many(shift, lengths)
        assert shared == [per_length_log_count(shift, n) for n in lengths]
        assert [log_count_words_many(shift, [n])[0] for n in lengths] == shared

    @settings(max_examples=40, deadline=None)
    @given(irreducible_shifts(), st.lists(st.integers(1, 30), min_size=1, max_size=40))
    def test_repeated_lengths_walked_once(self, shift, lengths):
        # one bit table column per distinct length, each value its own walk's
        walked = []
        sums = symbolic._sums_over_set_bits

        def spy(bit_table, values):
            walked.append(bit_table.shape[1])
            return sums(bit_table, values)

        symbolic._sums_over_set_bits = spy
        try:
            shared = log_count_words_many(shift, lengths)
        finally:
            symbolic._sums_over_set_bits = sums
        assert walked == [len(set(lengths))]
        assert shared == [per_length_log_count(shift, n) for n in lengths]

    @settings(max_examples=30, deadline=None)
    @given(irreducible_shifts(), st.lists(st.integers(2**69, 2**71), min_size=100, max_size=200))
    def test_batched_walk_equals_per_length_powering(self, shift, lengths):
        # the batch of a whole oracle call: a few hundred lengths near 2^70
        assert log_count_words_many(shift, lengths) == [per_length_log_count(shift, n) for n in lengths]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 2**71), min_size=12, max_size=40))
    def test_batched_walk_60_symbols(self, lengths):
        assert log_count_words_many(SFT60, lengths) == [per_length_log_count(SFT60, n) for n in lengths]

    def test_walk_sums_past_the_reduction_buffer(self):
        # 100^2 entries per product: more than numpy's 8192-element buffer
        shift = ShiftOfFiniteType([[int((a + 2 * b) % 7 != 0) for b in range(100)] for a in range(100)])
        lengths = [1, 2, 3, 1000, 2**40 + 7, 2**71 - 1]
        assert log_count_words_many(shift, lengths) == [per_length_log_count(shift, n) for n in lengths]

    @settings(max_examples=60, deadline=None)
    @given(irreducible_shifts(), st.lists(st.integers(1, 300), min_size=1, max_size=6))
    def test_shared_walk_matches_exact_log(self, shift, lengths):
        for n, value in zip(lengths, log_count_words_many(shift, lengths)):
            assert value == pytest.approx(math.log(count_words(shift, n)), rel=1e-12, abs=1e-14)

    def test_shared_walk_edge_cases(self):
        assert log_count_words_many(SFT60, []) == []
        assert log_count_words_many(SFT60, [1, 1]) == [math.log(60)] * 2
        with pytest.raises(SymbolicError, match=">= 1"):
            log_count_words_many(SFT60, [5, 0])

    @pytest.mark.skipif(mpmath is None, reason="needs mpmath")
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["full2", "full3", "golden"]), st.lists(st.integers(2**69, 2**71), min_size=1, max_size=20))
    def test_walk_within_four_epsilons_near_2_70(self, name, lengths):
        # ln N_n in closed form at 60 digits: n ln k on the full k-shift, and
        # ln F(n + 2) = (n + 2) ln phi - ln sqrt(5) on the golden mean (Binet;
        # the conjugate term is below exp(-10^20) at these n)
        shift = golden_mean_shift() if name == "golden" else full_shift(int(name[-1]))
        with mpmath.workdps(60):
            phi = (1 + mpmath.sqrt(5)) / 2
            exact = [
                (n + 2) * mpmath.log(phi) - mpmath.log(mpmath.sqrt(5)) if name == "golden" else n * mpmath.log(int(name[-1]))
                for n in lengths
            ]
            for value, want in zip(log_count_words_many(shift, lengths), exact):
                assert abs(value - want) <= 4 * sys.float_info.epsilon * want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**130), 2**130), max_size=40), st.integers(0, 12), st.data())
    def test_exponent_sums_are_exact(self, values, columns, data):
        # signed values of up to five 32-bit digits, as no walk reaches them
        cells = st.lists(st.booleans(), min_size=len(values) * columns, max_size=len(values) * columns)
        table = np.array(data.draw(cells), dtype=bool).reshape(len(values), columns)
        want = [sum(v for v, bit in zip(values, col) if bit) for col in table.T]
        assert symbolic._sums_over_set_bits(table, values) == want

    def test_walk_memory_is_linear_in_the_lengths(self):
        # 1000 vectors of 60 entries take 0.48 MB; 1000 running 60 x 60
        # products would take 28.8 MB
        lengths = [random.Random(0).randint(1, 2**71) for _ in range(1000)]
        log_count_words_many(SFT60, [2])  # numpy's first-call allocations
        tracemalloc.start()
        try:
            log_count_words_many(SFT60, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @settings(max_examples=40, deadline=None)
    @given(irreducible_shifts(), st.data())
    def test_word_counts_ending_gives_both_sequences(self, shift, data):
        k = shift.alphabet_size
        n_max = 8 if k == 1 else min(8, int(math.log(5_000) / math.log(k)))
        ends = data.draw(st.sets(st.integers(0, k - 1)))
        pairs = list(word_counts(shift, n_max, ends))
        assert len(pairs) == n_max
        for n, (every, ending) in enumerate(pairs, start=1):
            words = grown_words(shift, n)
            assert every == len(words)
            assert ending == sum(1 for w in words if w[-1] in ends)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
    def test_submultiplicative(self, m, n):
        g = golden_mean_shift()
        assert count_words(g, m + n) <= count_words(g, m) * count_words(g, n)

    @given(st.integers(min_value=1, max_value=50))
    def test_word_rate_dominates_entropy(self, n):
        # submultiplicativity makes ln W(n)/n >= h for every n
        g = golden_mean_shift()
        assert math.log(count_words(g, n)) / n >= entropy(g) - 1e-12


class TestMixingGap:
    def test_full_shift(self):
        assert mixing_gap(full_shift(2)) == 1

    def test_golden_mean(self):
        # M has a zero entry, M^2 = [[2,1],[1,1]] > 0
        assert mixing_gap(golden_mean_shift()) == 2

    def test_period_two_rejected(self):
        with pytest.raises(NotMixingError):
            mixing_gap(FLIP)

    def test_gap_iff_aperiodic(self):
        for shift in (full_shift(2), golden_mean_shift(), FLIP):
            n = digraph_period(shift.transition).period
            if n == 1:
                assert mixing_gap(shift) >= 1
            else:
                with pytest.raises(NotMixingError):
                    mixing_gap(shift)

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleShiftError):
            mixing_gap(ShiftOfFiniteType(((1, 1), (0, 1))))

    def test_star_beyond_256_symbols(self):
        # centre 0 <-> leaves 1..256 with a loop at leaf 1: path counts pass
        # 256, which an 8-bit matrix power would wrap to zero
        k = 257
        rows = [[0] * k for _ in range(k)]
        for leaf in range(1, k):
            rows[0][leaf] = rows[leaf][0] = 1
        rows[1][1] = 1
        assert mixing_gap(ShiftOfFiniteType(tuple(map(tuple, rows)))) == 4

    @pytest.mark.parametrize("k,gap", [(64, 3970), (80, 6242)])
    def test_cycle_with_chord_meets_wielandt_bound(self, k, gap):
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            rows[i][(i + 1) % k] = 1
        rows[k - 1][1] = 1
        assert mixing_gap(ShiftOfFiniteType(tuple(map(tuple, rows)))) == gap == (k - 1) ** 2 + 1


def _brute_force_gap(rows) -> int:
    m = np.array(rows, dtype=np.int64)
    power = m > 0
    p = 1
    while not power.all():
        power = (power.astype(np.int64) @ m) > 0
        p += 1
    return p


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_mixing_gap_matches_boolean_powers(k, data):
    density = data.draw(st.sampled_from([0.15, 0.3, 0.6]))
    bits = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    rows = [[1 if bits[i * k + j] < density else 0 for j in range(k)] for i in range(k)]
    try:
        shift = ShiftOfFiniteType(tuple(map(tuple, rows)))
        assume(digraph_period(shift.transition).period == 1)
    except SymbolicError:
        assume(False)
    assert mixing_gap(shift) == _brute_force_gap(rows)


def _cycle_with_chord(k: int) -> list[list[int]]:
    """k-cycle plus the chord k-1 -> 1: cycle lengths k and k - 1, gap (k-1)^2 + 1."""
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][(i + 1) % k] = 1
    rows[k - 1][1] = 1
    return rows


def _bitset_gap(rows) -> int:
    """Reference gap: Python-int bitset rows, one OR sweep per power."""
    k = len(rows)
    full = (1 << k) - 1
    succ = [[b for b in range(k) if row[b]] for row in rows]
    reach = [sum(1 << b for b in s) for s in succ]
    p = 1
    while not all(r == full for r in reach):
        nxt = []
        for s in succ:
            row = 0
            for b in s:
                row |= reach[b]
            nxt.append(row)
        reach = nxt
        p += 1
    return p


@st.composite
def hamiltonian_rows(draw, max_k, period=1):
    """Random 0/1 matrices on a random Hamiltonian cycle (so irreducible),
    plus up to 2k random edges, each stepping one class forward when the
    cycle positions are split into ``period`` classes (so ``period`` divides
    the period of the shift)."""
    k = period * draw(st.integers(min_value=1, max_value=max_k // period))
    order = draw(st.permutations(range(k)))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[order[i]][order[(i + 1) % k]] = 1
    pos = st.integers(0, k - 1)
    for i, c in draw(st.lists(st.tuples(pos, pos), max_size=2 * k)):
        rows[order[i]][order[(i + 1 + period * c) % k]] = 1
    return rows


@st.composite
def layered_digraphs(draw, max_k=7):
    """Random 0/1 digraphs on k <= max_k symbols whose edges step a random
    layer c to c + 1 mod N: N = 1 gives any digraph, and larger N gives
    periodic graphs when irreducible; reducible draws are kept."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = draw(st.integers(min_value=1, max_value=k))
    layer = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    bits = draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    return [[int(bits[a * k + b] < density and layer[b] == (layer[a] + 1) % n) for b in range(k)] for a in range(k)]


def _primitive_rows(max_k):
    return hamiltonian_rows(max_k).filter(lambda rows: digraph_period(rows).period == 1)


def _sft(rows) -> ShiftOfFiniteType:
    return ShiftOfFiniteType(tuple(map(tuple, rows)))


class TestMixingGapKernel:
    @settings(max_examples=80, deadline=None)
    @given(_primitive_rows(40))
    def test_matches_bitset_iteration(self, rows):
        assert mixing_gap(_sft(rows)) == _bitset_gap(rows)

    def test_cycle_with_chord_family(self):
        for k in range(2, 121):
            assert mixing_gap(_sft(_cycle_with_chord(k))) == (k - 1) ** 2 + 1, k


def _taylor_positive(coeffs, a: int, s: int) -> bool:
    """Whether every Taylor coefficient of p at x = a / 2^s is positive, for p
    with integer ``coeffs`` (highest first), i.e. whether x exceeds every real
    root of p (Budan-Fourier; conversely Gauss-Lucas).  Integer arithmetic on
    2^(s n) p(z / 2^s), shifted to z = a by repeated synthetic division."""
    n = len(coeffs) - 1
    c = [coef << (s * i) for i, coef in enumerate(coeffs)]
    for end in range(n + 1, 0, -1):
        for i in range(1, end):
            c[i] += a * c[i - 1]
        if c[end - 1] <= 0:
            return False
    return True


def _perron_interval(rows, bits: int = 100) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= rho < hi and hi - lo = 2^-bits: bisection, in exact
    rationals, on the predicate 'x exceeds every real root of the
    characteristic polynomial'.  rho is the largest real root, since every
    eigenvalue has modulus at most rho."""
    coeffs = _charpoly(rows)[0]
    lo, hi = 0, (max(map(sum, rows)) + 1) << bits  # numerators over 2^bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _taylor_positive(coeffs, mid, bits):
            hi = mid
        else:
            lo = mid
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def _chord_root(k: int, bits: int = 100) -> Fraction:
    """The one positive root of x^k - x - 1 (Descartes), the characteristic
    polynomial of the cycle with chord, by exact sign bisection on [1, 2]."""
    lo, hi = 1 << bits, 2 << bits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k - (mid << (bits * (k - 1))) - (1 << (bits * k)) > 0:
            hi = mid
        else:
            lo = mid
    return Fraction(lo, 1 << bits)


def _assert_bracket_holds(rows) -> float:
    ref_lo, ref_hi = _perron_interval(rows)
    lo, root, hi = _perron_bracket(np.array(rows, dtype=float))
    assert Fraction(lo) <= ref_lo and ref_hi <= Fraction(hi)
    assert lo <= root <= hi
    assert perron_root(rows) == root
    return root


class TestPerronKernel:
    @settings(max_examples=30, deadline=None)
    @given(_primitive_rows(30))
    def test_bracket_contains_exact_root_primitive(self, rows):
        _assert_bracket_holds(rows)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=4).flatmap(lambda n: hamiltonian_rows(24, period=n)))
    def test_bracket_contains_exact_root_periodic(self, rows):
        assert digraph_period(rows).period > 1
        _assert_bracket_holds(rows)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=30).flatmap(lambda k: st.permutations(range(k))))
    def test_permutation_root_is_exactly_one(self, perm):
        k = len(perm)
        cycle = [[int(j == perm[(perm.index(i) + 1) % k]) for j in range(k)] for i in range(k)]
        assert _assert_bracket_holds(cycle) == 1.0

    def test_integer_roots_exact(self):
        for k in (2, 3, 5, 60):
            assert perron_root([[1] * k] * k) == float(k)
        circulant = [[int((j - i) % 5 in (0, 1, 3)) for j in range(5)] for i in range(5)]
        assert perron_root(circulant) == 3.0

    def test_chord_charpoly_closed_form(self):
        for k in range(2, 25):
            assert _charpoly(_cycle_with_chord(k))[0] == [1] + [0] * (k - 2) + [-1, -1]

    @pytest.mark.parametrize("k", range(3, 201))
    def test_chord_entropy_matches_exact_root(self, k):
        rows = _cycle_with_chord(k)
        ref = _perron_interval(rows)[0] if k <= 16 else _chord_root(k)
        assert abs(math.log(perron_root(rows)) - math.log(float(ref))) < 1e-12
        lo, _, hi = _perron_bracket(np.array(rows, dtype=float))
        assert Fraction(lo) <= ref <= Fraction(hi)

    def test_clique_with_path_bracket(self):
        # irreducible: the bracket closes though the Perron vector spans 16^-15
        _assert_bracket_holds(clique_with_path(16, 15))

    def test_bracket_closes_where_the_solve_stalls(self):
        # the LU solve stops moving v with the ratios 1.6 slacks apart;
        # power steps on m + I close the bracket
        cols = ({1, 2}, {2}, {3}, {4}, {5}, {6}, {8}, {0, 2, 11}, {10}, {12}, {9}, {7, 11}, {11})
        rows = [[int(j in c) for j in range(len(cols))] for c in cols]
        assert abs(_assert_bracket_holds(rows) - 1.6290014357245456) < 1e-14

    def test_perron_vector_underflow_is_named(self):
        # irreducible, but the Perron vector falls by 2^-60 per path symbol
        rows = clique_with_path(1, 20)
        rows[0][0] = 2**60
        with pytest.raises(SymbolicError, match="underflows float64") as exc:
            perron_root(rows)
        assert "reducible" not in str(exc.value)

    def test_reducible_input(self):
        # a zero row is exact evidence of reducibility
        with pytest.raises(SymbolicError, match="row 1 is zero: the matrix is reducible"):
            perron_root(((1, 1), (0, 0)))
        # a defective root 1: the bracket shrinks only linearly, and the step cap ends it
        with pytest.raises(SymbolicError, match="did not close after 64 Noda steps") as exc:
            perron_root(((1, 1, 0), (0, 1, 0), (1, 1, 1)))
        assert "reducible" not in str(exc.value)
        # the analysis refuses a reducible graph before it asks for a Perron root
        forked = SoficPresentation(states=2, edges=((0, 0, "a"), (0, 1, "b"), (1, 1, "a")))
        with pytest.raises(ReducibleShiftError):
            system_facts(forked)


class TestPeriodDecomposition:
    def test_flip(self):
        d = digraph_period(FLIP.transition)
        assert d.period == 2
        assert d.class_of == (0, 1)

    def test_full_shift(self):
        assert digraph_period(full_shift(2).transition).period == 1

    def test_three_cycle(self):
        d = digraph_period(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
        assert d.period == 3
        assert sorted(d.class_of) == [0, 1, 2]

    def test_edges_step_one_class(self):
        for shift in (FLIP, golden_mean_shift()):
            d = digraph_period(shift.transition)
            k = shift.alphabet_size
            for a in range(k):
                for b in range(k):
                    if shift.transition[a][b]:
                        assert d.class_of[b] == (d.class_of[a] + 1) % d.period

    @settings(max_examples=300, deadline=None)
    @given(layered_digraphs())
    def test_search_matches_brute_force(self, rows):
        k = len(rows)
        # reflexive-transitive closure by Warshall's algorithm
        reach = [[bool(rows[a][b]) or a == b for b in range(k)] for a in range(k)]
        for c in range(k):
            for a in range(k):
                if reach[a][c]:
                    reach[a] = [x or y for x, y in zip(reach[a], reach[c])]
        if not all(map(all, reach)):
            with pytest.raises(ReducibleShiftError, match="reducible"):
                digraph_period(rows)
            return
        d = digraph_period(rows)
        # closed walks at 0 of length <= 3k reach every cycle length as a
        # difference (0 -> v, around a cycle at v, v -> 0), so their gcd is the period
        walks, lengths = [[int(a == b) for b in range(k)] for a in range(k)], []
        for n in range(1, 3 * k + 1):
            walks = [[int(any(walks[a][c] and rows[c][b] for c in range(k))) for b in range(k)] for a in range(k)]
            if walks[0][0]:
                lengths.append(n)
        assert d.period == (math.gcd(*lengths) or 1)  # 1 for the single symbol without a loop
        assert d.class_of[0] == 0
        for a, b in product(range(k), repeat=2):
            if rows[a][b]:
                assert d.class_of[b] == (d.class_of[a] + 1) % d.period

    def test_edge_counts_past_a_byte(self):
        # a presentation's adjacency counts parallel edges, one per label
        assert digraph_period([[300]]) == digraph_period([[1]])
        assert digraph_period([[0, 256], [7, 0]]) == digraph_period(FLIP.transition)
        letters = SoficPresentation(states=1, edges=tuple((0, 0, f"a{i}") for i in range(300)))
        assert system_facts(letters).decomposition.period == 1

    def test_reducible_reports_components(self):
        # the message names a symbol that one of the two searches from 0 misses
        with pytest.raises(ReducibleShiftError, match="reducible: symbol 1 cannot reach symbol 0"):
            digraph_period(((1, 1), (0, 1)))
        with pytest.raises(ReducibleShiftError, match="reducible: symbol 2 cannot be reached from symbol 0"):
            digraph_period(((1, 1, 0), (1, 1, 0), (1, 0, 1)))


class TestIndexSets:
    def test_class_zero_even_times(self):
        d = digraph_period(FLIP.transition)
        z = EventuallyPeriodic((), (EventuallyPeriodic(head=(), cycle=(0, 1)),))
        got = index_set(z, TimeSet(0, 2), d)
        assert got.pairs == frozenset({(0, 0)})
        assert got.diffs == frozenset({0})

    def test_class_one_even_times(self):
        d = digraph_period(FLIP.transition)
        z = EventuallyPeriodic((), (EventuallyPeriodic(head=(), cycle=(1, 0)),))
        got = index_set(z, TimeSet(0, 2), d)
        assert got.pairs == frozenset({(1, 0)})
        assert got.diffs == frozenset({1})

    def test_trivial_period(self):
        d = digraph_period(full_shift(2).transition)
        z = EventuallyPeriodic((), (EventuallyPeriodic(head=(), cycle=(0,)),))
        got = index_set(z, TimeSet(), d)
        assert got.pairs == frozenset({(0, 0)})
        assert got.diffs == frozenset({0})

    def test_pairs_nonempty_on_unbounded_sets(self):
        d = digraph_period(FLIP.transition)
        z = EventuallyPeriodic(
            head=(EventuallyPeriodic((), (0, 1)),),
            cycle=(EventuallyPeriodic((), (0, 1)), EventuallyPeriodic((), (1, 0))),
        )
        for s in (TimeSet(), TimeSet(0, 2), TimeSet(3, 4), TimeSet(10, 3, (1, 2))):
            assert index_set(z, s, d).pairs

    def test_counterexample_empty_intersection(self):
        # class-0 targets on even times vs class-1 targets on even times
        d = digraph_period(FLIP.transition)
        z1 = EventuallyPeriodic((), (EventuallyPeriodic(head=(), cycle=(0, 1)),))
        z2 = EventuallyPeriodic((), (EventuallyPeriodic(head=(), cycle=(1, 0)),))
        s = TimeSet(0, 2)
        i1 = index_set(z1, s, d)
        i2 = index_set(z2, s, d)
        assert indices_intersect([i1, i2]) is None

    def test_intersection_picks_least(self):
        a = IndexSet(2, frozenset({(0, 0)}))
        b = IndexSet(2, frozenset({(0, 0), (1, 0)}))
        assert indices_intersect([a, b]) == 0
        assert indices_intersect([b]) == 0

    def test_mismatched_period_rejected(self):
        with pytest.raises(SymbolicError, match="period"):
            indices_intersect([IndexSet(2, frozenset({(0, 0)})), IndexSet(3, frozenset({(0, 0)}))])


class TestSofic:
    def even_shift(self):
        # between consecutive 1s there is an even number of 0s
        return SoficPresentation(
            states=2,
            edges=((0, 0, "1"), (0, 1, "0"), (1, 0, "0")),
        )

    def test_even_shift_entropy(self):
        # adjacency [[1,1],[1,0]]; cross-checked against word counts below
        assert math.log(perron_root(self.even_shift().adjacency())) == pytest.approx(
            GOLDEN_ENTROPY, abs=1e-9
        )

    def test_even_shift_entropy_vs_word_counts(self):
        p = self.even_shift()
        w30, w31 = count_sofic_words(p, 30), count_sofic_words(p, 31)
        assert math.log(w31 / w30) == pytest.approx(GOLDEN_ENTROPY, abs=1e-3)
        assert abs(math.log(w30) / 30 - GOLDEN_ENTROPY) < 0.03

    def test_identity_labeling_matches_sft(self):
        for shift in (golden_mean_shift(), full_shift(3), FLIP):
            assert math.log(perron_root(sft_as_sofic(shift).adjacency())) == pytest.approx(
                entropy(shift), abs=1e-10
            )
            for n in range(1, 7):
                assert count_sofic_words(sft_as_sofic(shift), n) == count_words(
                    shift, n
                )

    def test_full_shift_presentation(self):
        p = SoficPresentation(states=1, edges=((0, 0, "a"), (0, 0, "b"), (0, 0, "c")))
        assert math.log(perron_root(p.adjacency())) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_right_resolving_enforced(self):
        with pytest.raises(SymbolicError, match="right-resolving"):
            SoficPresentation(states=2, edges=((0, 0, "a"), (0, 1, "a")))

    def test_dead_state_rejected(self):
        with pytest.raises(SymbolicError, match="no outgoing"):
            SoficPresentation(states=2, edges=((0, 0, "a"),))
        with pytest.raises(SymbolicError, match="^state 2 has no outgoing edge$"):  # the lowest one
            SoficPresentation(states=5, edges=((3, 0, "a"), (0, 1, "a"), (1, 0, "a")))

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((0.9, 0, "a"), "edge states must be integers"),  # int() truncates 0.9 to state 0
            ((0, np.float64(0), "a"), "edge states must be integers"),
            (("0", 0, "a"), "edge states must be integers"),  # int() parses it
            ((0, 0, 5), "edge labels must be strings"),  # str() made it "5"
            ((0, 0, None), "edge labels must be strings"),  # str() made it "None"
            ((0, 0, b"a"), "edge labels must be strings"),
        ],
    )
    def test_edges_are_not_cast(self, edge, message):
        with pytest.raises(SymbolicError, match=f"^{message}$"):
            SoficPresentation(states=1, edges=(edge,))

    @pytest.mark.parametrize("states", [1.0, 1.5, "2", np.float64(1.0), None], ids=["1.0", "1.5", "str", "np.float64", "None"])
    def test_state_count_is_not_cast(self, states):
        # 1.0 loaded and failed in adjacency(); 1.5 was "state 1 has no outgoing edge"
        with pytest.raises(SymbolicError, match="^states must be an integer$"):
            SoficPresentation(states=states, edges=((0, 0, "a"),))

    def test_numpy_state_count_accepted(self):
        for states in (np.int64(2), np.uint8(2)):
            p = SoficPresentation(states=states, edges=((0, 1, "a"), (1, 0, "b")))
            assert type(p.states) is int and p.states == 2
            assert p.adjacency() == [[0, 1], [1, 0]]

    def test_numpy_and_bool_states_accepted(self):
        p = SoficPresentation(states=2, edges=((np.int64(0), np.uint8(1), "a"), (True, False, "b")))
        assert p.edges == ((0, 1, "a"), (1, 0, "b"))
        assert all(type(v) is int for a, b, _ in p.edges for v in (a, b))

    def test_state_count_checked_against_the_edges(self):
        # refused from the one edge, with no list of ten million states
        tracemalloc.start()
        try:
            with pytest.raises(SymbolicError, match="^state 1 has no outgoing edge$"):
                SoficPresentation(states=10**7, edges=((0, 0, "a"),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMatrixImage:
    """The transition matrix read once into read-only uint8, bool and float64
    arrays, which every array reader of a shift shares."""

    IMAGES = {"matrix": np.uint8, "matrix_bool": np.bool_, "matrix_float": np.float64}

    @staticmethod
    def shifts():
        return [golden_mean_shift(), ShiftOfFiniteType(FLIP.transition), ShiftOfFiniteType(_cycle_with_chord(80)),
                ShiftOfFiniteType(SFT60.transition, "two")]

    def test_images_are_read_only_copies_of_the_rows(self):
        for shift in self.shifts():
            for name, dtype in self.IMAGES.items():
                image = getattr(shift, name)
                assert image.dtype == dtype and image.shape == (shift.alphabet_size,) * 2
                assert not image.flags.writeable
                assert np.array_equal(image, np.array(shift.transition, dtype=dtype))
                with pytest.raises(ValueError, match="read-only"):
                    image[0, 0] = 1

    def test_repeated_reads_return_the_same_object(self):
        shift = golden_mean_shift()
        first = [getattr(shift, name) for name in self.IMAGES]
        assert all(getattr(shift, name) is image for name, image in zip(self.IMAGES, first))
        assert np.shares_memory(shift.matrix_bool, shift.matrix)  # a view, not a copy

    def test_readers_leave_the_image_unchanged(self):
        for shift in self.shifts():
            images = {name: getattr(shift, name) for name in self.IMAGES}
            copies = {name: image.copy() for name, image in images.items()}
            perron_root(shift.matrix_float)
            system_facts(shift)
            if digraph_period(shift.transition).period == 1:
                mixing_gap(shift)
            else:
                with pytest.raises(NotMixingError):
                    mixing_gap(shift)
            log_count_words_many(shift, [1, 2, 3, 7, 100, 2**70])
            shift.word_admissible(np.arange(shift.alphabet_size, dtype=np.int64))
            for name, image in images.items():
                assert getattr(shift, name) is image
                assert np.array_equal(image, copies[name]) and image.dtype == copies[name].dtype

    @settings(max_examples=150, deadline=None)
    @given(irreducible_shifts(max_k=12))
    def test_perron_root_of_the_image(self, shift):
        want = perron_root(shift.transition).hex()
        assert perron_root(shift.matrix).hex() == perron_root(shift.matrix_float).hex() == want

    @settings(max_examples=150, deadline=None)
    @given(shaped_shifts(), st.lists(st.integers(1, 2**70), min_size=1, max_size=6))
    def test_log_counts_of_the_image(self, shift, lengths):
        # per_length_log_count converts the tuples with np.array(transition, dtype=float)
        want = [per_length_log_count(shift, n).hex() for n in lengths]
        assert [v.hex() for v in log_count_words_many(shift, lengths)] == want


class TestValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(SymbolicError, match="successor"):
            ShiftOfFiniteType(((1, 1), (0, 0)))

    def test_zero_column_rejected(self):
        with pytest.raises(SymbolicError, match="predecessor"):
            ShiftOfFiniteType(((1, 0), (1, 0)))

    def test_non_binary_rejected(self):
        with pytest.raises(SymbolicError, match="0 or 1"):
            ShiftOfFiniteType(((2, 1), (1, 1)))

    @staticmethod
    def _message(rows, sided="one"):
        with pytest.raises(SymbolicError) as exc:
            ShiftOfFiniteType(rows, sided)
        return type(exc.value), str(exc.value)

    def test_error_precedence(self):
        # entries first, then the empty shift, then the lowest symbol with a
        # zero row or column (the row when both), then the sidedness
        assert self._message(((2, 1), (0, 0))) == (SymbolicError, "transition entries must be 0 or 1")
        assert self._message(((0, 0), (0, 0))) == (EmptyShiftError, "zero transition matrix presents the empty shift")
        rows = [[int(a != 3 and b != 1) for b in range(5)] for a in range(5)]  # row 3 and column 1 zero
        assert self._message(rows) == (SymbolicError, "symbol 1 has no predecessor (all-zero column)")
        rows = [[int(a != 2 and b != 2) for b in range(5)] for a in range(5)]  # row 2 and column 2 zero
        assert self._message(rows) == (SymbolicError, "symbol 2 has no successor (all-zero row)")
        rows = [[int(a != 1 and b != 3) for b in range(5)] for a in range(5)]  # row 1 and column 3 zero
        assert self._message(rows) == (SymbolicError, "symbol 1 has no successor (all-zero row)")
        assert self._message(((1, 1),), "two") == (SymbolicError, "transition must be a nonempty square matrix")
        assert self._message(((1, 1), (1,)))[1] == "transition must be a nonempty square matrix"
        assert self._message(())[1] == "transition must be a nonempty square matrix"
        assert self._message(((2,),), "three")[1] == "transition entries must be 0 or 1"
        assert self._message(((1,),), "three")[1] == "sided must be 'one' or 'two'"

    def test_numpy_and_bool_rows_accepted(self):
        for rows in (
            np.array([[1, 1], [1, 0]]),
            ((True, True), (True, False)),
            [np.array([1, 1]), (1, np.int8(0))],
            np.array([[True, True], [True, False]]),
            ((np.int64(1), np.uint8(1)), (np.intp(1), np.int16(0))),
        ):
            shift = ShiftOfFiniteType(rows)
            assert shift.transition == ((1, 1), (1, 0))
            assert all(type(v) is int for row in shift.transition for v in row)

    @pytest.mark.parametrize(
        "rows",
        [
            ((1.5, 1), (1, 0.9)),  # int() truncates both to the golden mean
            ((1.0, 1), (1, 0)),
            (("1", "1"), ("1", "0")),  # int() parses them
            ("11", "10"),
            ((np.float64(1), 1), (1, 0)),
            np.array([[1.0, 1.0], [1.0, 0.0]]),
        ],
    )
    def test_non_integer_entries_rejected(self, rows):
        assert self._message(rows) == (SymbolicError, "transition entries must be 0 or 1")

    def test_shape_checked_before_entry_types(self):
        assert self._message(((1.5, 1), (1,)))[1] == "transition must be a nonempty square matrix"

    def test_sequence_admissibility(self):
        g = golden_mean_shift()
        assert g.sequence_admissible(EventuallyPeriodic((), (0,)))
        assert g.sequence_admissible(EventuallyPeriodic((1,), (0, 1)))
        assert not g.sequence_admissible(EventuallyPeriodic((1,), (1,)))

    @settings(max_examples=300, deadline=None)
    @given(irreducible_shifts(max_k=5), st.data())
    def test_word_admissible_is_the_pair_rule(self, shift, data):
        # symbols -1 and k lie outside the alphabet, alone or inside a pair;
        # walks of the graph, some with one symbol replaced (by -3 .. k + 2),
        # give long admissible words.  A list, a tuple and an int64 array of
        # the same word (the array path of witness prefixes) must agree
        k = shift.alphabet_size
        walk = [data.draw(st.integers(0, k - 1))]
        for _ in range(data.draw(st.integers(0, 12))):
            walk.append(data.draw(st.sampled_from([b for b in range(k) if shift.transition[walk[-1]][b]])))
        if data.draw(st.booleans()):
            walk[data.draw(st.integers(0, len(walk) - 1))] = data.draw(st.integers(-3, k + 2))
        word = data.draw(st.one_of(st.lists(st.integers(-1, k), max_size=6), st.just(walk)))
        want = all(0 <= c < k for c in word) and all(shift.transition[a][b] for a, b in zip(word, word[1:]))
        array = np.array(word, dtype=np.int64)
        assert shift.word_admissible(word) == shift.word_admissible(tuple(word)) == shift.word_admissible(array) == want

    @pytest.mark.parametrize(
        "word,want",
        [((), True), ((0,), True), ((1,), True), ((2,), False), ((-1,), False), ((0, 1, 0, 0), True), ((1, 1), False), ((0, -1), False), ((0, 2), False)],
    )
    def test_word_admissible_edges(self, word, want):
        g = golden_mean_shift()
        assert g.word_admissible(word) == g.word_admissible(np.array(word, dtype=np.int64)) == want


@settings(max_examples=40)
@given(irreducible_shifts(max_k=4))
def test_entropy_le_log_alphabet(shift):
    # entropy is read only from irreducible shifts: the analysis refuses the rest
    assert -1e-12 <= entropy(shift) <= math.log(shift.alphabet_size) + 1e-12


def _python_steps(fn, *args) -> int:
    """The trace events (calls, lines, returns) of the Python code fn runs: a
    count of interpreter steps that timing noise cannot move."""
    steps = 0

    def tracer(frame, event, arg):
        nonlocal steps
        steps += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return steps


class TestPythonSteps:
    """The shift kernels take fewer than 50 k Python steps at k = 200, where
    one step per matrix entry would be k^2 = 40000: the entries are read in C."""

    K = 200
    BOUND = 50 * K

    def test_building_a_shift(self):
        dense = [[int((7 * a + 3 * b) % 5 != 0) for b in range(self.K)] for a in range(self.K)]
        for rows in (dense, _cycle_with_chord(self.K)):
            assert _python_steps(ShiftOfFiniteType, rows) < self.BOUND

    def test_period_search(self):
        for rows in (_cycle_with_chord(self.K), [[1] * self.K] * self.K):
            assert _python_steps(digraph_period, rows) < self.BOUND

    def test_one_level_of_word_counts(self):
        # dense columns, summed as complements, and sparse ones
        dense = ShiftOfFiniteType([[int((7 * a + 3 * b) % 5 != 0) for b in range(self.K)] for a in range(self.K)])
        for shift in (dense, ShiftOfFiniteType(_cycle_with_chord(self.K))):
            levels = word_counts(shift, 3, range(0, self.K, 3))
            next(levels)
            assert _python_steps(next, levels) < self.BOUND
            assert _python_steps(word_counts, shift, 3, range(self.K)) < self.BOUND

    def test_a_level_of_word_counts_steps_once_per_column_class(self):
        # the dense shift's 200 columns fall into 5 classes of 40 equal
        # columns; one step per symbol would be 200 steps for the level alone
        dense = ShiftOfFiniteType([[int((7 * a + 3 * b) % 5 != 0) for b in range(self.K)] for a in range(self.K)])
        levels = word_counts(dense, 3, range(0, self.K, 3))
        next(levels)
        assert _python_steps(next, levels) < 40
