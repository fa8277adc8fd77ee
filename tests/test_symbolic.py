import math
from fractions import Fraction
from itertools import product

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from shrinktarget.rates import (
    AllTimes,
    Arithmetic,
    ShiftTarget,
    SymbolSequence,
    constant_shift_target,
)
from shrinktarget.symbolic import (
    EmptyShiftError,
    IndexSet,
    NotMixingError,
    ReducibleShiftError,
    ShiftOfFiniteType,
    SoficPresentation,
    SymbolicError,
    count_sofic_words,
    index_set,
    indices_intersect,
    log_count_words_many,
    mixing_gap,
    period_decomposition,
    perron_root,
    sft_entropy,
    sofic_entropy,
    word_counts_ending,
    _perron_bracket,
)
from shrinktarget.systems import _charpoly
from shift_strategies import count_words, full_shift, golden_mean_shift, irreducible_shifts, sft_as_sofic

GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)  # 0.48121182505960347
FLIP = ShiftOfFiniteType(((0, 1), (1, 0)))  # period-2 permutation shift


def brute_force_words(shift, n):
    """Independent oracle: enumerate admissible words by direct product scan."""
    k = shift.alphabet_size
    return [w for w in product(range(k), repeat=n) if shift.word_admissible(w)]


def per_length_log_count(shift, n):
    """Binary powering of one length alone: the loop log_count_words_many shares."""
    e = n - 1
    base = np.array(shift.transition, dtype=float)
    s = base.max()
    base /= s
    log_base = math.log(s)
    result = np.eye(shift.alphabet_size)
    log_result = 0.0
    while e > 0:
        if e & 1:
            result = result @ base
            log_result += log_base
            s = result.max()
            result /= s
            log_result += math.log(s)
        e >>= 1
        if e:
            base = base @ base
            log_base *= 2.0
            s = base.max()
            base /= s
            log_base += math.log(s)
    return log_result + math.log(result.sum())


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


class TestEntropy:
    def test_full_shift(self):
        assert sft_entropy(full_shift(2)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_golden_mean(self):
        assert sft_entropy(golden_mean_shift()) == pytest.approx(
            GOLDEN_ENTROPY, abs=1e-9
        )

    def test_permutation_matrix(self):
        assert sft_entropy(FLIP) == pytest.approx(0.0, abs=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(EmptyShiftError):
            ShiftOfFiniteType(((0, 0), (0, 0)))

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
        every, ending = word_counts_ending(shift, n_max, () if ends is None else ends)
        counts = every if ends is None else ending
        assert len(counts) == n_max
        for n, count in enumerate(counts, start=1):
            assert count == sum(1 for w in grown_words(shift, n) if w[-1] in keep)
        if ends is None:
            assert counts[-1] == count_words(shift, n_max)

    def test_word_counts_rejects_bad_input(self):
        with pytest.raises(SymbolicError, match=">= 1"):
            word_counts_ending(golden_mean_shift(), 0, ())
        with pytest.raises(SymbolicError, match="alphabet"):
            word_counts_ending(golden_mean_shift(), 3, [2])

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

    @settings(max_examples=40, deadline=None)
    @given(irreducible_shifts(), st.data())
    def test_word_counts_ending_gives_both_sequences(self, shift, data):
        k = shift.alphabet_size
        n_max = 8 if k == 1 else min(8, int(math.log(5_000) / math.log(k)))
        ends = data.draw(st.sets(st.integers(0, k - 1)))
        every, ending = word_counts_ending(shift, n_max, ends)
        for n in range(1, n_max + 1):
            words = grown_words(shift, n)
            assert every[n - 1] == len(words)
            assert ending[n - 1] == sum(1 for w in words if w[-1] in ends)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
    def test_submultiplicative(self, m, n):
        g = golden_mean_shift()
        assert count_words(g, m + n) <= count_words(g, m) * count_words(g, n)

    @given(st.integers(min_value=1, max_value=50))
    def test_word_rate_dominates_entropy(self, n):
        # submultiplicativity makes ln W(n)/n >= h for every n
        g = golden_mean_shift()
        assert math.log(count_words(g, n)) / n >= sft_entropy(g) - 1e-12


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
            n = period_decomposition(shift).period
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
        assume(period_decomposition(shift).period == 1)
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


def _primitive_rows(max_k):
    return hamiltonian_rows(max_k).filter(lambda rows: period_decomposition(_sft(rows)).period == 1)


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
    coeffs = _charpoly(rows)
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
        assert period_decomposition(_sft(rows)).period > 1
        _assert_bracket_holds(rows)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=30).flatmap(lambda k: st.permutations(range(k))))
    def test_permutation_root_is_exactly_one(self, perm):
        k = len(perm)
        rows = [[int(perm[i] == j) for j in range(k)] for i in range(k)]
        assert sft_entropy(_sft(rows)) == 0.0
        cycle = [[int(j == perm[(perm.index(i) + 1) % k]) for j in range(k)] for i in range(k)]
        assert _assert_bracket_holds(cycle) == 1.0

    def test_integer_roots_exact(self):
        for k in (2, 3, 5, 60):
            assert perron_root([[1] * k] * k) == float(k)
        circulant = [[int((j - i) % 5 in (0, 1, 3)) for j in range(5)] for i in range(5)]
        assert perron_root(circulant) == 3.0

    def test_chord_charpoly_closed_form(self):
        for k in range(2, 25):
            assert _charpoly(_cycle_with_chord(k)) == [1] + [0] * (k - 2) + [-1, -1]

    @pytest.mark.parametrize("k", [12, 16, 64, 80, 200])
    def test_chord_entropy_matches_exact_root(self, k):
        rows = _cycle_with_chord(k)
        ref = _perron_interval(rows)[0] if k <= 16 else _chord_root(k)
        assert abs(sft_entropy(_sft(rows)) - math.log(float(ref))) < 1e-12
        lo, _, hi = _perron_bracket(np.array(rows, dtype=float))
        assert Fraction(lo) <= ref <= Fraction(hi)

    def test_reducible_input(self):
        # the Perron vector of a reducible matrix may vanish somewhere
        with pytest.raises(SymbolicError, match="reducible"):
            perron_root(((1, 1), (0, 0)))
        assert sft_entropy(ShiftOfFiniteType(((1, 1), (0, 1)))) == 0.0
        forked = SoficPresentation(states=2, edges=((0, 0, "a"), (0, 1, "b"), (1, 1, "a")))
        assert sofic_entropy(forked) == 0.0


class TestPeriodDecomposition:
    def test_flip(self):
        d = period_decomposition(FLIP)
        assert d.period == 2
        assert d.class_of == (0, 1)

    def test_full_shift(self):
        assert period_decomposition(full_shift(2)).period == 1

    def test_three_cycle(self):
        d = period_decomposition(
            ShiftOfFiniteType(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
        )
        assert d.period == 3
        assert sorted(d.class_of) == [0, 1, 2]

    def test_edges_step_one_class(self):
        for shift in (FLIP, golden_mean_shift()):
            d = period_decomposition(shift)
            k = shift.alphabet_size
            for a in range(k):
                for b in range(k):
                    if shift.transition[a][b]:
                        assert d.class_of[b] == (d.class_of[a] + 1) % d.period

    def test_reducible_reports_components(self):
        reducible = ShiftOfFiniteType(((1, 1), (0, 1)))
        with pytest.raises(ReducibleShiftError) as exc:
            period_decomposition(reducible)
        assert len(exc.value.components) == 2


class TestIndexSets:
    def test_class_zero_even_times(self):
        d = period_decomposition(FLIP)
        z = constant_shift_target(SymbolSequence(head=(), cycle=(0, 1)))
        got = index_set(z, Arithmetic(0, 2), d)
        assert got.pairs == frozenset({(0, 0)})
        assert got.diffs == frozenset({0})

    def test_class_one_even_times(self):
        d = period_decomposition(FLIP)
        z = constant_shift_target(SymbolSequence(head=(), cycle=(1, 0)))
        got = index_set(z, Arithmetic(0, 2), d)
        assert got.pairs == frozenset({(1, 0)})
        assert got.diffs == frozenset({1})

    def test_trivial_period(self):
        d = period_decomposition(full_shift(2))
        z = constant_shift_target(SymbolSequence(head=(), cycle=(0,)))
        got = index_set(z, AllTimes(), d)
        assert got.pairs == frozenset({(0, 0)})
        assert got.diffs == frozenset({0})

    def test_pairs_nonempty_on_unbounded_sets(self):
        d = period_decomposition(FLIP)
        z = ShiftTarget(
            preperiod=(SymbolSequence((), (0, 1)),),
            cycle=(SymbolSequence((), (0, 1)), SymbolSequence((), (1, 0))),
        )
        for s in (AllTimes(), Arithmetic(0, 2), Arithmetic(3, 4)):
            assert index_set(z, s, d).pairs

    def test_counterexample_empty_intersection(self):
        # class-0 targets on even times vs class-1 targets on even times
        d = period_decomposition(FLIP)
        z1 = constant_shift_target(SymbolSequence(head=(), cycle=(0, 1)))
        z2 = constant_shift_target(SymbolSequence(head=(), cycle=(1, 0)))
        s = Arithmetic(0, 2)
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
        assert sofic_entropy(self.even_shift()) == pytest.approx(
            GOLDEN_ENTROPY, abs=1e-9
        )

    def test_even_shift_entropy_vs_word_counts(self):
        p = self.even_shift()
        w30, w31 = count_sofic_words(p, 30), count_sofic_words(p, 31)
        assert math.log(w31 / w30) == pytest.approx(GOLDEN_ENTROPY, abs=1e-3)
        assert abs(math.log(w30) / 30 - GOLDEN_ENTROPY) < 0.03

    def test_identity_labeling_matches_sft(self):
        for shift in (golden_mean_shift(), full_shift(3), FLIP):
            assert sofic_entropy(sft_as_sofic(shift)) == pytest.approx(
                sft_entropy(shift), abs=1e-10
            )
            for n in range(1, 7):
                assert count_sofic_words(sft_as_sofic(shift), n) == count_words(
                    shift, n
                )

    def test_full_shift_presentation(self):
        p = SoficPresentation(states=1, edges=((0, 0, "a"), (0, 0, "b"), (0, 0, "c")))
        assert sofic_entropy(p) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_right_resolving_enforced(self):
        with pytest.raises(SymbolicError, match="right-resolving"):
            SoficPresentation(states=2, edges=((0, 0, "a"), (0, 1, "a")))

    def test_dead_state_rejected(self):
        with pytest.raises(SymbolicError, match="no outgoing"):
            SoficPresentation(states=2, edges=((0, 0, "a"),))


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

    def test_sequence_admissibility(self):
        g = golden_mean_shift()
        assert g.sequence_admissible(SymbolSequence((), (0,)))
        assert g.sequence_admissible(SymbolSequence((1,), (0, 1)))
        assert not g.sequence_admissible(SymbolSequence((1,), (1,)))

    @settings(max_examples=200, deadline=None)
    @given(irreducible_shifts(max_k=4), st.data())
    def test_word_admissible_is_the_pair_rule(self, shift, data):
        # symbols -1 and k lie outside the alphabet, alone or inside a pair
        k = shift.alphabet_size
        word = data.draw(st.lists(st.integers(-1, k), max_size=6))
        want = all(0 <= c < k for c in word) and all(shift.transition[a][b] for a, b in zip(word, word[1:]))
        assert shift.word_admissible(word) == shift.word_admissible(tuple(word)) == want


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_entropy_le_log_alphabet(k, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
    # patch rows/columns so the matrix presents a nonempty shift
    for i in range(k):
        if not any(rows[i]):
            rows[i][i] = 1
        if not any(rows[j][i] for j in range(k)):
            rows[i][i] = 1
    shift = ShiftOfFiniteType(tuple(tuple(r) for r in rows))
    assert -1e-12 <= sft_entropy(shift) <= math.log(k) + 1e-12
