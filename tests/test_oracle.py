import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget.oracle import (
    LimsupCylinderScheme,
    OracleError,
    PlanError,
    bracket_critical_exponent,
    construct_witness,
    count_separated,
    covering_sum,
    floor_guarded,
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
    time_set_members,
)
from shrinktarget.symbolic import (
    NotMixingError,
    ShiftOfFiniteType,
    full_shift,
    golden_mean_shift,
    sft_entropy,
)
from shift_strategies import irreducible_shifts

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
        succ = [b for b in range(shift.alphabet_size) if shift.allows(walk[-1], b)]
        nxt = data.draw(st.sampled_from(succ))
        if nxt in walk:
            i = walk.index(nxt)
            return SymbolSequence(head=tuple(walk[:i]), cycle=tuple(walk[i:]))
        walk.append(nxt)


def naive_verify(prefix, phi, z, s):
    """The symbol-by-symbol hit check that verify_witness replaces."""
    target = constant_shift_target(z) if isinstance(z, SymbolSequence) else z
    verified = []
    for n in time_set_members(s, 0, len(prefix)):
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
        # tau = 1: each term 2^n e^{-(ln2/2) 2n} = 1 exactly
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        total = covering_sum(scheme, LN2 / 2.0, (10, 20))
        assert total == pytest.approx(11.0, abs=1e-12)

    def test_supcritical_terms_decay(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        t10 = covering_sum(scheme, 0.4, (10, 10))
        t20 = covering_sum(scheme, 0.4, (20, 20))
        assert t20 < t10 < 1.0

    def test_zero_exponent_counts(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.0, ZEROS)
        # pure counting: W(1) + W(2) + W(3) = 2 + 3 + 5
        assert covering_sum(scheme, 0.0, (1, 3)) == pytest.approx(10.0)

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
        ws = [scheme.weight(n) for n in range(1, 40)]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_two_sided_rejected(self):
        two = full_shift(2, "two")
        with pytest.raises(OracleError, match="one-sided"):
            LimsupCylinderScheme(two, 0.5, ZEROS)
        with pytest.raises(OracleError, match="one-sided"):
            plan_witness(two, Exponential(0.5), ZEROS, AllTimes(), 3, 0.05)
        with pytest.raises(OracleError, match="one-sided"):
            moran_dimension(two, 0.5, 4)

    def test_inadmissible_target_rejected(self):
        with pytest.raises(OracleError, match="admissible"):
            LimsupCylinderScheme(golden_mean_shift(), 0.5, SymbolSequence((), (1,)))


class TestBracket:
    def test_full_shift_tau_one(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        lo, hi = bracket_critical_exponent(scheme, grid(0.2, 0.5), 40)
        assert hi - lo <= 0.02
        assert lo < LN2 / 2.0 <= hi

    def test_full_shift_tau_half(self):
        scheme = LimsupCylinderScheme(full_shift(2), 0.5, ZEROS)
        lo, hi = bracket_critical_exponent(scheme, grid(0.3, 0.6), 40)
        assert hi - lo <= 0.02
        assert lo < LN2 / 1.5 <= hi

    def test_golden_mean_tau_half(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
        lo, hi = bracket_critical_exponent(scheme, grid(0.2, 0.45), 40)
        assert hi - lo <= 0.02
        assert lo < GOLDEN_ENTROPY / 1.5 <= hi

    def test_one_sided_grid_rejected(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        with pytest.raises(OracleError, match="straddle"):
            bracket_critical_exponent(scheme, grid(0.5, 0.6), 40)
        with pytest.raises(OracleError, match="straddle"):
            bracket_critical_exponent(scheme, grid(0.05, 0.2), 40)

    def test_unsorted_grid_rejected(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        with pytest.raises(OracleError, match="sorted"):
            bracket_critical_exponent(scheme, [0.4, 0.3], 40)


class TestMoran:
    def test_full_shift_tau_half(self):
        est = moran_dimension(full_shift(2), 0.5, 12)
        assert abs(est - LN2 / 1.5) < 0.05

    def test_full_shift_no_pinning(self):
        est = moran_dimension(full_shift(2), 0.0, 12)
        assert abs(est - LN2) < 0.02

    def test_golden_mean_tau_half(self):
        est = moran_dimension(golden_mean_shift(), 0.5, 12)
        assert abs(est - GOLDEN_ENTROPY / 1.5) < 0.05

    def test_stays_below_bracket_upper_edge(self):
        for shift, tau in ((full_shift(2), 0.5), (golden_mean_shift(), 0.5)):
            scheme = LimsupCylinderScheme(shift, tau, ZEROS)
            _, hi = bracket_critical_exponent(scheme, grid(0.05, 0.6), 40)
            assert moran_dimension(shift, tau, 12) <= hi + 0.02

    def test_non_mixing_rejected(self):
        with pytest.raises(NotMixingError):
            moran_dimension(ShiftOfFiniteType(((0, 1), (1, 0))), 0.5, 8)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.3])
    def test_plateau_below_exact_value(self, tau):
        # with the fixed eta = 0.02 the estimate settles on
        # h (1 - 1.5 eta) / (1 + tau - 1.5 eta), not on h / (1 + tau)
        for shift in (full_shift(3), golden_mean_shift()):
            h = sft_entropy(shift)
            plateau = h * 0.97 / (1.0 + tau - 0.03)
            assert moran_dimension(shift, tau, 12) == pytest.approx(plateau, rel=1e-12)
            assert moran_dimension(shift, tau, 40) == pytest.approx(plateau, rel=1e-12)


class TestWitness:
    def test_full_shift_plan_shape(self):
        phi = Exponential(0.3)
        plan = plan_witness(full_shift(2), phi, ZEROS, AllTimes(), 5, 0.05)
        hits = [b.hit_time for b in plan.blocks]
        assert len(hits) == 5
        assert all(b > a for a, b in zip(hits, hits[1:]))
        for b in plan.blocks:
            assert b.pinned_len == math.floor(0.35 * b.hit_time) + 1
            assert b.pinned_len >= math.floor(0.3 * b.hit_time) + 1

    def test_full_shift_construct_and_verify(self):
        phi = Exponential(0.3)
        plan = plan_witness(full_shift(2), phi, ZEROS, AllTimes(), 5, 0.05)
        cert = construct_witness(plan, full_shift(2), ZEROS)
        assert cert.all_verified
        for hit in cert.hits:
            assert hit.achieved_exponent >= hit.required_exponent
        confirmed = verify_witness(cert.prefix, phi, ZEROS, AllTimes())
        assert set(b.hit_time for b in plan.blocks) <= set(confirmed)

    def test_golden_mean_avoids_forbidden_word(self):
        phi = Exponential(0.3)
        g = golden_mean_shift()
        plan = plan_witness(g, phi, ZEROS, AllTimes(), 5, 0.05)
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
        plan = plan_witness(g, phi, z, AllTimes(), 4, 0.05)
        cert = construct_witness(plan, g, z)
        assert cert.all_verified
        assert g.word_admissible(cert.prefix)
        for block, hit in zip(plan.blocks, cert.hits):
            assert hit.required_exponent <= hit.achieved_exponent
            # the copied prefix guarantees at least pinned_len agreement
            assert hit.achieved_exponent >= block.pinned_len + 1
        confirmed = verify_witness(cert.prefix, phi, z, AllTimes())
        assert set(b.hit_time for b in plan.blocks) <= set(confirmed)

    def test_empty_plan(self):
        plan = plan_witness(full_shift(2), Exponential(0.3), ZEROS, AllTimes(), 0, 0.05)
        assert plan.blocks == ()
        cert = construct_witness(plan, full_shift(2), ZEROS)
        assert cert.prefix == () and cert.all_verified

    def test_explicit_powers_of_two(self):
        powers = Explicit(tuple(2**i for i in range(3, 12)), tail=Arithmetic(2**12, 2**12))
        plan = plan_witness(full_shift(2), Exponential(0.3), ZEROS, powers, 3, 0.05)
        for b in plan.blocks:
            assert powers.contains(b.hit_time)

    def test_deterministic(self):
        phi = Exponential(0.3)
        g = golden_mean_shift()
        plan = plan_witness(g, phi, ZEROS, AllTimes(), 4, 0.05)
        c1 = construct_witness(plan, g, ZEROS)
        c2 = construct_witness(plan, g, ZEROS)
        assert c1.prefix == c2.prefix

    def test_vacuous_rate(self):
        # phi == 1: every time verifies (distance <= e^-1 < 1)
        phi = Exponential(0.0)
        prefix = tuple([0, 1] * 20)
        confirmed = verify_witness(prefix, phi, ZEROS, AllTimes())
        assert confirmed == list(range(len(prefix)))

    def test_alternating_point_misses_fast_rate(self):
        phi = Exponential(2.0)
        prefix = tuple([0, 1] * 30)
        confirmed = verify_witness(prefix, phi, ZEROS, AllTimes())
        assert all(n < 1 for n in confirmed)  # only the vacuous-free n=0 can hit

    def test_all_zero_point_hits_everywhere(self):
        phi = Exponential(1.0)
        prefix = tuple([0] * 40)
        confirmed = verify_witness(prefix, phi, ZEROS, AllTimes())
        # certified hits limited only by the finite observation window
        for n in confirmed:
            assert n + required_exponent(phi, n) - 1 <= len(prefix)
        assert confirmed and confirmed[0] == 0

    def test_eta_must_be_positive(self):
        with pytest.raises(PlanError):
            plan_witness(full_shift(2), Exponential(0.3), ZEROS, AllTimes(), 2, 0.0)


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
        assert verify_witness(prefix, phi, z, s) == naive_verify(prefix, phi, z, s)

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
        plan = plan_witness(shift, phi, z, s, stages, eta)
        cert = construct_witness(plan, shift, z)
        assert [h.time for h in cert.hits] == [b.hit_time for b in plan.blocks]
        for hit in cert.hits:
            want = naive_first_disagreement(cert.prefix, hit.time, target.target(hit.time))
            assert hit.achieved_exponent == want
        assert cert.all_verified == all(h.verified for h in cert.hits)
        assert verify_witness(cert.prefix, phi, z, s) == naive_verify(cert.prefix, phi, z, s)


class TestCountSeparated:
    def test_full_shift(self):
        assert count_separated(full_shift(2), 5, 1) == 32

    def test_golden_mean(self):
        assert count_separated(golden_mean_shift(), 3, 1) == 5

    def test_single_step(self):
        assert count_separated(full_shift(4), 1, 1) == 4

    def test_rate_approaches_entropy(self):
        g = golden_mean_shift()
        n = 80
        rate = math.log(count_separated(g, n, 2)) / n
        assert abs(rate - GOLDEN_ENTROPY) < 0.02
