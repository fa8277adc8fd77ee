import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget.oracle import (
    LimsupCylinderScheme,
    OracleError,
    PlanError,
    WitnessCertificate,
    WitnessHit,
    _stream_agreement,
    construct_witness,
    critical_exponent,
    floor_guarded,
    grid_cell,
    moran_dimension,
    plan_witness,
    required_exponent,
    verify_witness,
)
from shrinktarget.rates import (
    AllTimes,
    Arithmetic,
    Exponential,
    Explicit,
    ShiftTarget,
    SymbolSequence,
    constant_shift_target,
)
from shrinktarget.symbolic import (
    NotMixingError,
    ShiftOfFiniteType,
    mixing_gap,
    sft_entropy,
)
from shift_strategies import full_shift, golden_mean_shift, irreducible_shifts

LN2 = math.log(2.0)
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)
ZEROS = SymbolSequence(head=(), cycle=(0,))


def grid(lo, hi, step=0.01):
    n = round((hi - lo) / step)
    return [lo + i * step for i in range(n + 1)]


def brute_count(shift, z, tau, n):
    """Independent cylinder count: enumerate words and check the junction."""
    ell = floor_guarded(tau * n)
    zp = z.prefix(ell)
    k = shift.alphabet_size
    total = 0
    for w in product(range(k), repeat=n):
        if shift.word_admissible(w + zp):
            total += 1
    return total


# three symbols, 0 -> 0 forbidden; the target 2 0 1 0 1 ... has a head
TRIANGLE = ShiftOfFiniteType(((0, 1, 1), (1, 0, 1), (1, 1, 1)))
HEADED = SymbolSequence(head=(2,), cycle=(0, 1))


def admissible_sequence(data, shift):
    """Random admissible eventually periodic stream: a walk until it closes."""
    walk = [data.draw(st.integers(0, shift.alphabet_size - 1))]
    while True:
        succ = [b for b in range(shift.alphabet_size) if shift.transition[walk[-1]][b]]
        nxt = data.draw(st.sampled_from(succ))
        if nxt in walk:
            i = walk.index(nxt)
            return SymbolSequence(head=tuple(walk[:i]), cycle=tuple(walk[i:]))
        walk.append(nxt)


def naive_verify(prefix, phi, z, s):
    """The symbol-by-symbol hit check of every time in S, on a raw prefix."""
    target = constant_shift_target(z) if isinstance(z, SymbolSequence) else z
    verified = []
    for n in filter(s.contains, range(len(prefix))):
        r = required_exponent(phi, n)
        if n + r - 1 > len(prefix):
            continue
        tgt = target.target(n)
        if all(prefix[n + i] == tgt.symbol(i) for i in range(r - 1)):
            verified.append(n)
    return verified


def naive_first_disagreement(prefix, start, z):
    """First j >= 1 with prefix[start + j - 1] != z_j, else the window end + 1."""
    limit = len(prefix) - start
    for j in range(1, limit + 1):
        if prefix[start + j - 1] != z.symbol(j - 1):
            return j
    return limit + 1


def z_function_agreement(prefix, z):
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


def claim_every_time(prefix):
    """A certificate claiming a hit at every time 0..L-1, with recorded
    exponents that verification must not read."""
    hits = tuple(WitnessHit(n, 10**9, 0) for n in range(len(prefix)))
    return WitnessCertificate(tuple(prefix), hits, True)


def time_sets():
    return st.one_of(
        st.just(AllTimes()),
        st.builds(Arithmetic, st.integers(0, 6), st.integers(1, 4)),
    )


class TestFloorGuarded:
    def test_plain(self):
        assert floor_guarded(3.7) == 3
        assert floor_guarded(0.0) == 0

    def test_snaps_float_noise(self):
        assert floor_guarded(0.3 * 10) == 3  # 3.0000000000000004
        assert floor_guarded(2.9999999999) == 3
        assert floor_guarded(2.99) == 2


class TestCoveringSum:
    def test_flat_at_critical(self):
        # tau = 1: each term 2^n e^{-(ln2/2) 2n} = 1 exactly, so the fit
        # puts s* at ln2/2
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        assert all(c == 2**n for n, c in enumerate(scheme.counts(20), 1))
        assert critical_exponent(scheme, 20) == pytest.approx(LN2 / 2.0, rel=1e-14)

    def test_supcritical_terms_decay(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        t10, t20 = (scheme.count(n) * math.exp(-0.4 * (n + scheme.match_len(n))) for n in (10, 20))
        assert t20 < t10 < 1.0

    def test_zero_exponent_counts(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.0, ZEROS)
        # pure counting: W(1), W(2), W(3) = 2, 3, 5
        assert scheme.counts(3) == [2, 3, 5]

    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts_match_brute_force(self, tau, n):
        for shift, z in (
            (full_shift(2), ZEROS),
            (golden_mean_shift(), ZEROS),
            (TRIANGLE, HEADED),
            (TRIANGLE, SymbolSequence(head=(), cycle=(1, 0, 2))),
        ):
            scheme = LimsupCylinderScheme(shift, tau, z)
            assert scheme.count(n) == brute_count(shift, z, tau, n)
            assert scheme.counts(n) == [brute_count(shift, z, tau, m) for m in range(1, n + 1)]

    @settings(max_examples=60, deadline=None)
    @given(irreducible_shifts(), st.floats(0.0, 2.0), st.data())
    def test_counts_match_junction_enumeration(self, shift, tau, data):
        z = admissible_sequence(data, shift)
        scheme = LimsupCylinderScheme(shift, tau, z)
        k = shift.alphabet_size
        n_max = 8 if k == 1 else min(8, int(math.log(5_000) / math.log(k)))
        counts = scheme.counts(n_max)
        assert counts == [brute_count(shift, z, tau, n) for n in range(1, n_max + 1)]
        assert scheme.count(n_max) == counts[-1]

    def test_level_index_must_be_positive(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
        with pytest.raises(OracleError, match=">= 1"):
            scheme.counts(0)
        with pytest.raises(OracleError, match=">= 1"):
            scheme.count(0)

    def test_weights_strictly_increasing(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
        # the diameter exponent n + match_len(n) of a level-n cylinder
        ws = [n + scheme.match_len(n) for n in range(1, 40)]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_two_sided_rejected(self):
        two = full_shift(2, "two")
        with pytest.raises(OracleError, match="one-sided"):
            LimsupCylinderScheme(two, 0.5, ZEROS)
        with pytest.raises(OracleError, match="one-sided"):
            plan_witness(two, Exponential(0.5), ZEROS, AllTimes(), 3, 0.05, mixing_gap(two))
        with pytest.raises(OracleError, match="one-sided"):
            moran_dimension(two, 0.5, 4, mixing_gap(two))

    def test_inadmissible_target_rejected(self):
        with pytest.raises(OracleError, match="admissible"):
            LimsupCylinderScheme(golden_mean_shift(), 0.5, SymbolSequence((), (1,)))


class TestBracket:
    def test_full_shift_tau_one(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        lo, hi = grid_cell(critical_exponent(scheme, 40), grid(0.2, 0.5))
        assert hi - lo <= 0.02
        assert lo < LN2 / 2.0 <= hi

    def test_full_shift_tau_half(self):
        scheme = LimsupCylinderScheme(full_shift(2), 0.5, ZEROS)
        lo, hi = grid_cell(critical_exponent(scheme, 40), grid(0.3, 0.6))
        assert hi - lo <= 0.02
        assert lo < LN2 / 1.5 <= hi

    def test_golden_mean_tau_half(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
        lo, hi = grid_cell(critical_exponent(scheme, 40), grid(0.2, 0.45))
        assert hi - lo <= 0.02
        assert lo < GOLDEN_ENTROPY / 1.5 <= hi

    def test_one_sided_grid_rejected(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        with pytest.raises(OracleError, match="straddle"):
            grid_cell(critical_exponent(scheme, 40), grid(0.5, 0.6))
        with pytest.raises(OracleError, match="straddle"):
            grid_cell(critical_exponent(scheme, 40), grid(0.05, 0.2))


def cli_grid(h, step=0.01):
    """The oracle command's default grid: step, 2 step, ... up to h + 0.1."""
    return grid(step, h + 0.1, step)


# 60-symbol primitive SFT: a -> b allowed iff (7a + 3b) % 5 != 0
SFT60 = ShiftOfFiniteType(tuple(tuple(int((7 * a + 3 * b) % 5 != 0) for b in range(60)) for a in range(60)))


class TestCriticalExponent:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["full2", "full3", "full4", "golden"]), st.floats(0.05, 2.0))
    def test_bracket_contains_exact_value(self, name, tau):
        shift = golden_mean_shift() if name == "golden" else full_shift(int(name[-1]))
        h = sft_entropy(shift)
        lo, hi = grid_cell(critical_exponent(LimsupCylinderScheme(shift, tau, ZEROS), 40), cli_grid(h))
        assert lo <= h / (1.0 + tau) < hi
        assert hi - lo == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "shift,tau,target,depth",
        [
            # the per-grid slope test put these brackets below h/(1+tau):
            # [2.28, 2.29], [0.83, 0.84] and [0.46, 0.47]
            (SFT60, 0.67803, SymbolSequence((), (0, 1)), 40),
            (full_shift(3), 0.306301, ZEROS, 100),
            (golden_mean_shift(), 0.02, ZEROS, 60),
        ],
        ids=["sft60", "full3", "golden_mean"],
    )
    def test_rows_the_slope_test_missed(self, shift, tau, target, depth):
        h = sft_entropy(shift)
        lo, hi = grid_cell(critical_exponent(LimsupCylinderScheme(shift, tau, target), depth), cli_grid(h))
        assert lo <= h / (1.0 + tau) < hi

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.3])
    def test_full_shift_up_to_rounding(self, k, tau):
        scheme = LimsupCylinderScheme(full_shift(k), tau, ZEROS)
        assert critical_exponent(scheme, 40) == pytest.approx(math.log(k) / (1.0 + tau), rel=1e-14)

    def test_shared_word_counts_give_the_same_value(self):
        # rates at the same first target symbol share one recurrence
        deep = LimsupCylinderScheme(TRIANGLE, 0.1, HEADED).word_sequences(50)
        for tau in (0.0, 0.1, 0.7):
            scheme = LimsupCylinderScheme(TRIANGLE, tau, HEADED)
            assert critical_exponent(scheme, 30, deep) == critical_exponent(scheme, 30)
            assert scheme.counts(30, deep) == scheme.counts(30)

    def test_short_word_counts_rejected(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
        with pytest.raises(OracleError, match="cover 10 levels, need 20"):
            scheme.counts(20, scheme.word_sequences(10))


class TestGridCell:
    def test_half_open_cells(self):
        g = [0.4, 0.5, 0.6]
        assert grid_cell(0.4, g) == (0.4, 0.5)
        assert grid_cell(0.45, g) == (0.4, 0.5)
        assert grid_cell(0.5, g) == (0.5, 0.6)

    @pytest.mark.parametrize("s", [0.39, 0.6, 0.7])
    def test_outside_the_grid_rejected(self, s):
        with pytest.raises(OracleError, match="straddle"):
            grid_cell(s, [0.4, 0.5, 0.6])

    def test_empty_and_single_point_grids_rejected(self):
        for g in ([], [0.4]):
            with pytest.raises(OracleError, match="straddle"):
                grid_cell(0.4, g)


class TestMoran:
    def test_full_shift_tau_half(self):
        est = moran_dimension(full_shift(2), 0.5, 12, mixing_gap(full_shift(2)))
        assert abs(est - LN2 / 1.5) < 0.05

    def test_full_shift_no_pinning(self):
        est = moran_dimension(full_shift(2), 0.0, 12, mixing_gap(full_shift(2)))
        assert abs(est - LN2) < 0.02

    def test_golden_mean_tau_half(self):
        est = moran_dimension(golden_mean_shift(), 0.5, 12, mixing_gap(golden_mean_shift()))
        assert abs(est - GOLDEN_ENTROPY / 1.5) < 0.05

    def test_stays_below_bracket_upper_edge(self):
        for shift, tau in ((full_shift(2), 0.5), (golden_mean_shift(), 0.5)):
            scheme = LimsupCylinderScheme(shift, tau, ZEROS)
            _, hi = grid_cell(critical_exponent(scheme, 40), grid(0.05, 0.6))
            assert moran_dimension(shift, tau, 12, mixing_gap(shift)) <= hi + 0.02

    def test_non_mixing_rejected(self):
        # the gap the estimate takes does not exist for a periodic shift
        flip = ShiftOfFiniteType(((0, 1), (1, 0)))
        with pytest.raises(NotMixingError):
            moran_dimension(flip, 0.5, 8, mixing_gap(flip))

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.3])
    def test_plateau_below_exact_value(self, tau):
        # with the fixed eta = 0.02 the estimate settles on
        # h (1 - 1.5 eta) / (1 + tau - 1.5 eta), not on h / (1 + tau)
        for shift in (full_shift(3), golden_mean_shift()):
            h = sft_entropy(shift)
            plateau = h * 0.97 / (1.0 + tau - 0.03)
            assert moran_dimension(shift, tau, 12, mixing_gap(shift)) == pytest.approx(plateau, rel=1e-12)
            assert moran_dimension(shift, tau, 40, mixing_gap(shift)) == pytest.approx(plateau, rel=1e-12)


class TestWitness:
    def test_full_shift_plan_shape(self):
        phi = Exponential(0.3)
        plan = plan_witness(full_shift(2), phi, ZEROS, AllTimes(), 5, 0.05, mixing_gap(full_shift(2)))
        hits = [b.hit_time for b in plan.blocks]
        assert len(hits) == 5
        assert all(b > a for a, b in zip(hits, hits[1:]))
        for b in plan.blocks:
            assert b.pinned_len == math.floor(0.35 * b.hit_time) + 1
            assert b.pinned_len >= math.floor(0.3 * b.hit_time) + 1

    def test_full_shift_construct_and_verify(self):
        phi = Exponential(0.3)
        plan = plan_witness(full_shift(2), phi, ZEROS, AllTimes(), 5, 0.05, mixing_gap(full_shift(2)))
        cert = construct_witness(plan, full_shift(2), ZEROS)
        assert cert.all_verified
        for hit in cert.hits:
            assert hit.achieved_exponent >= hit.required_exponent
        planned = [b.hit_time for b in plan.blocks]
        assert verify_witness(cert, phi, ZEROS, AllTimes()) == planned
        every = verify_witness(claim_every_time(cert.prefix), phi, ZEROS, AllTimes())
        assert every == naive_verify(cert.prefix, phi, ZEROS, AllTimes())
        assert set(planned) <= set(every)

    def test_golden_mean_avoids_forbidden_word(self):
        phi = Exponential(0.3)
        g = golden_mean_shift()
        plan = plan_witness(g, phi, ZEROS, AllTimes(), 5, 0.05, mixing_gap(g))
        cert = construct_witness(plan, g, ZEROS)
        assert cert.all_verified
        assert g.word_admissible(cert.prefix)
        assert all(
            not (a == 1 and b == 1) for a, b in zip(cert.prefix, cert.prefix[1:])
        )

    def test_periodic_target_pinned_blocks_visible(self):
        # target 001001... differs from the all-zero filler, so the achieved
        # exponents are bounded by the pinned length rather than running to
        # the end of the prefix
        z = SymbolSequence(head=(), cycle=(0, 0, 1))
        phi = Exponential(0.3)
        g = golden_mean_shift()
        plan = plan_witness(g, phi, z, AllTimes(), 4, 0.05, mixing_gap(g))
        cert = construct_witness(plan, g, z)
        assert cert.all_verified
        assert g.word_admissible(cert.prefix)
        for block, hit in zip(plan.blocks, cert.hits):
            assert hit.required_exponent <= hit.achieved_exponent
            # the copied prefix guarantees at least pinned_len agreement
            assert hit.achieved_exponent >= block.pinned_len + 1
        planned = [b.hit_time for b in plan.blocks]
        assert verify_witness(cert, phi, z, AllTimes()) == planned
        every = verify_witness(claim_every_time(cert.prefix), phi, z, AllTimes())
        assert every == naive_verify(cert.prefix, phi, z, AllTimes())
        assert set(planned) <= set(every)

    def test_empty_plan(self):
        plan = plan_witness(full_shift(2), Exponential(0.3), ZEROS, AllTimes(), 0, 0.05, mixing_gap(full_shift(2)))
        assert plan.blocks == ()
        cert = construct_witness(plan, full_shift(2), ZEROS)
        assert cert.prefix == () and cert.all_verified

    def test_explicit_powers_of_two(self):
        powers = Explicit(tuple(2**i for i in range(3, 12)), tail=Arithmetic(2**12, 2**12))
        plan = plan_witness(full_shift(2), Exponential(0.3), ZEROS, powers, 3, 0.05, mixing_gap(full_shift(2)))
        for b in plan.blocks:
            assert powers.contains(b.hit_time)

    def test_deterministic(self):
        phi = Exponential(0.3)
        g = golden_mean_shift()
        plan = plan_witness(g, phi, ZEROS, AllTimes(), 4, 0.05, mixing_gap(g))
        c1 = construct_witness(plan, g, ZEROS)
        c2 = construct_witness(plan, g, ZEROS)
        assert c1.prefix == c2.prefix

    def test_vacuous_rate(self):
        # phi == 1: every time verifies (distance <= e^-1 < 1)
        phi = Exponential(0.0)
        prefix = tuple([0, 1] * 20)
        confirmed = verify_witness(claim_every_time(prefix), phi, ZEROS, AllTimes())
        assert confirmed == list(range(len(prefix)))

    def test_alternating_point_misses_fast_rate(self):
        phi = Exponential(2.0)
        prefix = tuple([0, 1] * 30)
        confirmed = verify_witness(claim_every_time(prefix), phi, ZEROS, AllTimes())
        assert confirmed == naive_verify(prefix, phi, ZEROS, AllTimes())
        assert all(n < 1 for n in confirmed)  # only the vacuous-free n=0 can hit

    def test_all_zero_point_hits_everywhere(self):
        phi = Exponential(1.0)
        prefix = tuple([0] * 40)
        confirmed = verify_witness(claim_every_time(prefix), phi, ZEROS, AllTimes())
        assert confirmed == naive_verify(prefix, phi, ZEROS, AllTimes())
        # certified hits limited only by the finite observation window
        for n in confirmed:
            assert n + required_exponent(phi, n) - 1 <= len(prefix)
        assert confirmed and confirmed[0] == 0

    def test_verify_proves_claims_not_records(self):
        # a hit at n needs floor(tau n) symbols of agreement with 000...;
        # the 1 at position 3 breaks only the windows that reach it
        prefix = (0, 0, 0, 1) + (0,) * 8
        claims = (
            WitnessHit(4, 5, 3),
            WitnessHit(3, 100, 2),  # inflated: every window at 3 holds the 1
            WitnessHit(5, 3, 3),
            WitnessHit(2, 1, 0),  # the requirement is recomputed from phi
            WitnessHit(0, 1, 1),
            WitnessHit(11, 9, 6),  # the window at 11 runs past the prefix
            WitnessHit(12, 1, 7),  # outside the prefix
            WitnessHit(-1, 1, 1),
        )
        cert = WitnessCertificate(prefix, claims, True)
        half = Exponential(0.5)
        assert verify_witness(cert, half, ZEROS, AllTimes()) == [4, 5, 2, 0]
        assert verify_witness(cert, half, ZEROS, Arithmetic(0, 2)) == [4, 2, 0]
        assert verify_witness(cert, half, ZEROS, Explicit((5,), tail=Arithmetic(100, 1))) == [5]
        # at tau = 1 the window at 2 is 2..3, which holds the 1
        assert verify_witness(cert, Exponential(1.0), ZEROS, AllTimes()) == [4, 5, 0]

    def test_eta_must_be_positive(self):
        with pytest.raises(PlanError):
            plan_witness(full_shift(2), Exponential(0.3), ZEROS, AllTimes(), 2, 0.0, mixing_gap(full_shift(2)))


def _symbol_streams(k):
    return st.builds(
        SymbolSequence,
        st.lists(st.integers(0, k - 1), max_size=3).map(tuple),
        st.lists(st.integers(0, k - 1), min_size=1, max_size=3).map(tuple),
    )


class TestWitnessAgainstNaiveLoops:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),
        st.floats(0.0, 1.5),
        time_sets(),
        st.booleans(),
        st.data(),
    )
    def test_verify_matches_naive(self, k, tau, s, schedule, data):
        streams = _symbol_streams(k)
        if schedule:
            z = ShiftTarget(
                tuple(data.draw(st.lists(streams, max_size=2))),
                tuple(data.draw(st.lists(streams, min_size=1, max_size=3))),
            )
            pool = list(z.preperiod + z.cycle)
        else:
            z = data.draw(streams)
            pool = [z]
        # pieces of random symbols and of target prefixes, so that long
        # agreements occur; the prefix may also be too short for any window
        pieces = data.draw(
            st.lists(
                st.one_of(
                    st.lists(st.integers(0, k - 1), max_size=4),
                    st.tuples(st.sampled_from(pool), st.integers(0, 12)).map(
                        lambda t: list(t[0].prefix(t[1]))
                    ),
                ),
                max_size=6,
            )
        )
        prefix = tuple(c for piece in pieces for c in piece)
        phi = Exponential(tau)
        assert verify_witness(claim_every_time(prefix), phi, z, s) == naive_verify(prefix, phi, z, s)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_agreement_kernel_matches_oracles(self, k, data):
        z = data.draw(
            st.builds(
                SymbolSequence,
                st.lists(st.integers(0, k - 1), max_size=3).map(tuple),
                st.lists(st.integers(0, k - 1), min_size=1, max_size=5).map(tuple),
            )
        )
        # random symbols and prefixes of z, so that agreements are long and
        # may run to the end; a short prefix may end inside the head
        pieces = data.draw(
            st.lists(
                st.one_of(
                    st.lists(st.integers(0, k - 1), max_size=4),
                    st.integers(0, 14).map(lambda m: list(z.prefix(m))),
                ),
                max_size=6,
            )
        )
        prefix = tuple(c for piece in pieces for c in piece)
        every = _stream_agreement(np.array(prefix, dtype=np.int64), z, np.arange(len(prefix)))
        assert every.tolist() == z_function_agreement(prefix, z)
        assert every.tolist() == [naive_first_disagreement(prefix, n, z) - 1 for n in range(len(prefix))]
        starts = data.draw(st.lists(st.integers(0, len(prefix) - 1), max_size=8)) if prefix else []
        some = _stream_agreement(np.array(prefix, dtype=np.int64), z, np.array(starts, dtype=np.int64))
        assert some.tolist() == [every[n] for n in starts]

    @pytest.mark.parametrize(
        "prefix,want",
        [
            ((), []),
            ((1,), [1]),  # ends inside the head
            ((1, 2), [2, 0]),
            ((1, 0), [1, 0]),  # head mismatch
            ((0, 1, 2, 0, 1, 0), [0, 5, 0, 0, 1, 0]),  # runs to the end from 1
            ((0, 1, 2, 0, 1, 2, 0, 1), [0, 4, 0, 0, 4, 0, 0, 1]),
            ((1, 2, 0, 1, 1), [4, 0, 0, 1, 1]),
        ],
    )
    def test_agreement_kernel_edges(self, prefix, want):
        z = SymbolSequence(head=(1, 2), cycle=(0, 1))
        got = _stream_agreement(np.array(prefix, dtype=np.int64), z, np.arange(len(prefix)))
        assert got.tolist() == want == z_function_agreement(prefix, z)

    @settings(max_examples=60, deadline=None)
    @given(
        irreducible_shifts(max_k=4, mixing=True),
        st.floats(0.0, 1.2),
        st.floats(0.05, 0.3),
        time_sets(),
        st.integers(0, 3),
        st.booleans(),
        st.data(),
    )
    def test_construct_hits_match_naive(self, shift, tau, eta, s, stages, schedule, data):
        if schedule:
            cycle = tuple(admissible_sequence(data, shift) for _ in range(data.draw(st.integers(1, 3))))
            z = ShiftTarget((admissible_sequence(data, shift),), cycle)
        else:
            z = admissible_sequence(data, shift)
        target = constant_shift_target(z) if isinstance(z, SymbolSequence) else z
        phi = Exponential(tau)
        plan = plan_witness(shift, phi, z, s, stages, eta, mixing_gap(shift))
        cert = construct_witness(plan, shift, z)
        assert [h.time for h in cert.hits] == [b.hit_time for b in plan.blocks]
        for hit in cert.hits:
            want = naive_first_disagreement(cert.prefix, hit.time, target.target(hit.time))
            assert hit.achieved_exponent == want
        assert cert.all_verified == all(h.verified for h in cert.hits)
        every = naive_verify(cert.prefix, phi, z, s)
        assert verify_witness(claim_every_time(cert.prefix), phi, z, s) == every
        planned = [b.hit_time for b in plan.blocks]
        assert verify_witness(cert, phi, z, s) == [n for n in every if n in planned]
