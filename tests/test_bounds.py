import math

import pytest
from hypothesis import given, strategies as st

from shrinktarget.bounds import (
    BiLipschitz,
    BoundInput,
    BoundReport,
    CaseTag,
    HypothesisViolatedError,
    Lambda,
    LambdaPair,
    Lipschitz,
    bound_input_from_profile,
    bounds_expanding,
    bounds_hyperbolic_set,
    bounds_one_sided_shift,
    bounds_two_sided_shift,
    covering_bounds,
    dim_upper_ambient,
    exact_expanding_torus,
    exact_toral_automorphism,
    lower_dim_bilipschitz,
    lower_dim_lipschitz,
    lower_entropy_general,
    lower_factor,
    upper_bounds,
)
from shrinktarget.rates import Exponential, RateExponents
from shrinktarget.symbolic import full_shift, golden_mean_shift, period_decomposition, sft_entropy
from shrinktarget.systems import (
    HyperbolicityProfile,
    IntegerMatrixSystem,
    analyze_matrix,
    sharp_profile_from_matrix,
)

LN2 = math.log(2.0)
CAT = IntegerMatrixSystem(((2, 1), (1, 1)))
CAT_SPECTRUM = analyze_matrix(CAT, 1e-9)
CAT_LOG_UNSTABLE = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # 0.9624236501192069
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)


def shift_data(x):
    """(mixing, h_top) of an SFT, the data the shift theorems take."""
    return period_decomposition(x).period == 1, sft_entropy(x)


def unit_profile(h=LN2):
    """Two-sided full-shift style profile: exponents and constants all 1."""
    return HyperbolicityProfile(lambda1=1.0, lambda2=1.0, ln_l2=1.0, h_top=h, ln_l1=1.0)


def one_sided_profile(h=LN2):
    return HyperbolicityProfile(lambda1=math.inf, lambda2=1.0, ln_l2=1.0, h_top=h)


def tau(t_up, t_low=None):
    return RateExponents(t_up, t_up if t_low is None else t_low)


class TestLowerFactor:
    def test_zero_tau_gives_full_entropy(self):
        inp = BoundInput(unit_profile(), tau(0.0))
        assert lower_entropy_general(inp) == pytest.approx(LN2, abs=1e-15)

    def test_unit_exponents_half_tau(self):
        # (1 - 0.5)/(1 + 0.5) = 1/3
        inp = BoundInput(unit_profile(), tau(0.5))
        assert lower_entropy_general(inp) == pytest.approx(LN2 / 3.0, abs=1e-15)

    def test_infinite_lambda1_limit(self):
        # limit factor lambda2/(lambda2 + tau) = ln2/(2 ln2) = 1/2
        prof = HyperbolicityProfile(lambda1=math.inf, lambda2=LN2, ln_l2=LN2, h_top=LN2)
        inp = BoundInput(prof, tau(LN2))
        assert lower_entropy_general(inp) == pytest.approx(LN2 / 2.0, abs=1e-15)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolatedError):
            lower_factor(1.0, 1.0, 1.5)
        with pytest.raises(HypothesisViolatedError):
            lower_factor(1.0, 1.0, 1.0)  # boundary not asserted

    def test_chi_zero_matches_plain_factor(self):
        for t in (0.0, 0.3, 0.7):
            assert lower_factor(1.0, 2.0, t, chi=0.0) == pytest.approx(
                (1.0 * 2.0 - 2.0 * t) / (1.0 * 2.0 + 1.0 * t), abs=1e-15
            )

    def test_chi_weakening_shrinks_factor(self):
        base = lower_factor(1.0, 1.0, 0.4, chi=0.0)
        weak = lower_factor(1.0, 1.0, 0.4, chi=0.5)
        assert weak < base
        assert weak == pytest.approx(
            (1.0 / 1.5) * (1.0 - 0.4) / (1.0 + 0.4 + 2.0 * 0.5 * 0.4), abs=1e-15
        )

    @given(
        lam1=st.floats(min_value=0.1, max_value=5.0),
        lam2=st.floats(min_value=0.1, max_value=5.0),
        chi=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_monotone_nonincreasing_in_tau(self, lam1, lam2, chi):
        taus = [lam1 * k / 10.0 for k in range(10)]
        vals = [lower_factor(lam1, lam2, t, chi) for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLowerDimension:
    def test_two_sided_full_shift_ambient(self):
        inp = BoundInput(unit_profile(), tau(0.0), map_class=BiLipschitz(1.0, 1.0))
        assert lower_dim_bilipschitz(inp) == pytest.approx(2.0 * LN2, abs=1e-15)

    def test_one_sided_full_shift(self):
        inp = BoundInput(one_sided_profile(), tau(1.0), map_class=Lipschitz(1.0))
        assert lower_dim_lipschitz(inp) == pytest.approx(LN2 / 2.0, abs=1e-15)

    def test_dim_vanishes_as_lipschitz_grows(self):
        ent = None
        prev = math.inf
        for lnl in (1.0, 10.0, 100.0, 1000.0):
            inp = BoundInput(one_sided_profile(), tau(0.5), map_class=Lipschitz(lnl))
            d = lower_dim_lipschitz(inp)
            assert d < prev
            prev = d
            e = lower_entropy_general(inp)
            assert ent is None or e == pytest.approx(ent)
            ent = e
        assert prev < 1e-3

    def test_map_class_mismatch(self):
        inp = BoundInput(unit_profile(), tau(0.0), map_class=Lipschitz(1.0))
        with pytest.raises(ValueError):
            lower_dim_bilipschitz(inp)


class TestUpperBounds:
    def test_lipschitz_case(self):
        inp = BoundInput(
            one_sided_profile(LN2), tau(LN2), map_class=Lipschitz(LN2),
            hyper_class=Lambda(LN2),
        )
        rep = upper_bounds(inp)
        assert rep.entropy_upper == pytest.approx(LN2 / 2.0, abs=1e-15)
        assert rep.dim_upper == pytest.approx(0.5, abs=1e-15)

    def test_boundary_case(self):
        inp = BoundInput(
            unit_profile(), tau(1.0), map_class=BiLipschitz(1.0, 1.0),
            hyper_class=LambdaPair(1.0, 1.0),
        )
        rep = upper_bounds(inp)
        assert rep.case_tag is CaseTag.BOUNDARY_ZERO
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper == pytest.approx(LN2)

    def test_degenerate_case(self):
        inp = BoundInput(
            unit_profile(), tau(2.0), map_class=BiLipschitz(1.0, 1.0),
            hyper_class=LambdaPair(1.0, 1.0),
        )
        rep = upper_bounds(inp)
        assert rep.case_tag is CaseTag.DEGENERATE_ZERO
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper == 0.0

    def test_without_hyper_class_dim_unavailable(self):
        inp = BoundInput(unit_profile(), tau(2.0), map_class=BiLipschitz(1.0, 1.0))
        rep = upper_bounds(inp)
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper is None

    def test_infinite_tau_lower(self):
        exps = RateExponents(math.inf, math.inf)
        rep = upper_bounds(
            BoundInput(one_sided_profile(), exps, map_class=Lipschitz(1.0), hyper_class=Lambda(1.0))
        )
        assert rep.entropy_upper == 0.0 and rep.dim_upper == 0.0
        rep2 = upper_bounds(
            BoundInput(unit_profile(), exps, map_class=BiLipschitz(1.0, 1.0), hyper_class=LambdaPair(1.0, 1.0))
        )
        assert rep2.entropy_upper == 0.0 and rep2.dim_upper == 0.0

    @given(t=st.floats(min_value=0.0, max_value=0.99))
    def test_upper_nonincreasing_in_tau(self, t):
        def h_up(tv):
            return upper_bounds(
                BoundInput(unit_profile(), tau(tv), map_class=BiLipschitz(1.0, 1.0))
            ).entropy_upper

        assert h_up(t) >= h_up(min(t + 0.01, 0.999)) - 1e-12


class TestExactToral:
    def test_cat_map_tau_zero(self):
        rep = exact_toral_automorphism(CAT_SPECTRUM, tau(0.0))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(CAT_LOG_UNSTABLE, abs=1e-9)
        assert rep.dim_lower == pytest.approx(2.0, abs=1e-9)

    def test_cat_map_half_log_unstable(self):
        rep = exact_toral_automorphism(CAT_SPECTRUM, tau(CAT_LOG_UNSTABLE / 2.0))
        assert rep.entropy_lower == pytest.approx(CAT_LOG_UNSTABLE / 3.0, abs=1e-12)
        assert rep.dim_lower == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_cat_map_boundary(self):
        rep = exact_toral_automorphism(CAT_SPECTRUM, tau(CAT_LOG_UNSTABLE))
        assert rep.case_tag is CaseTag.BOUNDARY_ZERO
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper == 1.0
        assert rep.dim_lower is None

    def test_cat_map_beyond(self):
        rep = exact_toral_automorphism(CAT_SPECTRUM, tau(1.5))
        assert rep.case_tag is CaseTag.DEGENERATE_ZERO
        assert rep.dim_upper == 0.0

    def test_boundary_continuity(self):
        rep = exact_toral_automorphism(CAT_SPECTRUM, tau(CAT_LOG_UNSTABLE - 1e-8))
        assert rep.case_tag is CaseTag.EXACT
        assert 0.0 < rep.entropy_lower < 1e-7

    def test_requires_unit_determinant(self):
        p = analyze_matrix(IntegerMatrixSystem(((3, 1), (1, 1))), 1e-9)  # det 2
        if p.lambda_s_mod is not None:
            with pytest.raises(HypothesisViolatedError, match="det"):
                exact_toral_automorphism(p, tau(0.0))

    def test_cross_path_agreement_with_hyperbolic_set(self):
        sharp = sharp_profile_from_matrix(CAT, CAT_SPECTRUM)
        for t in (0.0, 0.2, 0.45, CAT_LOG_UNSTABLE / 2.0):
            via_exact = exact_toral_automorphism(CAT_SPECTRUM, tau(t))
            via_set = bounds_hyperbolic_set(bound_input_from_profile(sharp, tau(t)))
            assert via_set.case_tag is CaseTag.EXACT
            assert via_set.entropy_lower == pytest.approx(
                via_exact.entropy_lower, abs=1e-10
            )
            assert via_set.dim_lower == pytest.approx(via_exact.dim_lower, abs=1e-10)


class TestHyperbolicSet:
    def test_crude_profile_strict_sandwich(self):
        from shrinktarget.systems import crude_profile_from_matrix

        m = IntegerMatrixSystem(((3, 1), (2, 1)))  # nonsymmetric, det 1
        crude = crude_profile_from_matrix(m, analyze_matrix(m))
        rep = bounds_hyperbolic_set(bound_input_from_profile(crude, tau(0.1)))
        assert rep.case_tag is CaseTag.GENERIC
        assert rep.entropy_lower < rep.entropy_upper
        assert rep.dim_lower < rep.dim_upper

    def test_lower_unavailable_when_tau_large(self):
        prof = HyperbolicityProfile(lambda1=0.5, lambda2=1.0, ln_l2=2.0, h_top=1.0, ln_l1=1.0)
        rep = bounds_hyperbolic_set(bound_input_from_profile(prof, tau(0.7)))
        assert rep.entropy_lower is None
        assert rep.entropy_upper is not None

    def test_index_veto_blocks_lower(self):
        sharp = sharp_profile_from_matrix(CAT, CAT_SPECTRUM)
        rep = bounds_hyperbolic_set(
            bound_input_from_profile(sharp, tau(0.1)), index_ok=False
        )
        assert rep.entropy_lower is None


class TestExpanding:
    def test_doubling_exact(self):
        m = IntegerMatrixSystem(((2,),))
        p = analyze_matrix(m, 1e-9)
        rep = exact_expanding_torus(p, tau(LN2))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(LN2 / 2.0, abs=1e-12)
        assert rep.dim_lower == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_equal_moduli(self):
        p = analyze_matrix(IntegerMatrixSystem(((2, 0), (0, 2))), 1e-9)
        rep = exact_expanding_torus(p, tau(0.0))
        assert rep.entropy_lower == pytest.approx(2.0 * LN2, abs=1e-12)
        assert rep.dim_lower == pytest.approx(2.0, abs=1e-12)

    def test_distinct_moduli_strict_sandwich(self):
        p = analyze_matrix(IntegerMatrixSystem(((2, 0), (0, 3))), 1e-9)
        rep = exact_expanding_torus(p, tau(0.1))
        assert rep.case_tag is CaseTag.GENERIC
        assert rep.entropy_lower < rep.entropy_upper
        assert rep.dim_lower < rep.dim_upper

    def test_bounds_expanding_exact_at_matching_constants(self):
        m = IntegerMatrixSystem(((2,),))
        prof = sharp_profile_from_matrix(m, analyze_matrix(m, 1e-9))
        rep = bounds_expanding(bound_input_from_profile(prof, tau(LN2)))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(LN2 / 2.0, abs=1e-12)
        assert rep.dim_lower == pytest.approx(0.5, abs=1e-12)
        assert rep.notes  # records the exactness-condition reading

    def test_non_expanding_rejected(self):
        with pytest.raises(HypothesisViolatedError):
            exact_expanding_torus(CAT_SPECTRUM, tau(0.0))


class TestShiftTheorems:
    def test_one_sided_full_shift_exact(self):
        rep = bounds_one_sided_shift(*shift_data(full_shift(2)), tau(1.0))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(LN2 / 2.0, abs=1e-12)
        assert rep.dim_lower == pytest.approx(LN2 / 2.0, abs=1e-12)

    def test_two_sided_golden_mean_exact(self):
        rep = bounds_two_sided_shift(*shift_data(golden_mean_shift("two")), tau(0.5))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(GOLDEN_ENTROPY / 3.0, abs=1e-9)
        assert rep.dim_lower == pytest.approx(GOLDEN_ENTROPY * 2.0 / 1.5, abs=1e-9)

    def test_two_sided_boundary(self):
        rep = bounds_two_sided_shift(*shift_data(full_shift(2, "two")), tau(1.0))
        assert rep.case_tag is CaseTag.BOUNDARY_ZERO
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper == pytest.approx(LN2)

    def test_two_sided_beyond(self):
        rep = bounds_two_sided_shift(*shift_data(full_shift(2, "two")), tau(1.4))
        assert rep.case_tag is CaseTag.DEGENERATE_ZERO
        assert rep.dim_upper == 0.0

    def test_non_mixing_needs_index(self):
        from shrinktarget.symbolic import ShiftOfFiniteType

        flip = ShiftOfFiniteType(((0, 1), (1, 0)), "two")
        vetoed = bounds_two_sided_shift(
            *shift_data(flip), tau(0.2), time_sets_all_naturals=False, index_ok=False
        )
        assert vetoed.entropy_lower is None
        allowed = bounds_two_sided_shift(
            *shift_data(flip), tau(0.2), time_sets_all_naturals=False, index_ok=True
        )
        assert allowed.entropy_lower is not None

    def test_sandwich_with_distinct_exponents(self):
        rep = bounds_one_sided_shift(
            *shift_data(full_shift(2)), RateExponents(1.0, 0.5), time_sets_all_naturals=False,
        )
        assert rep.entropy_lower == pytest.approx(LN2 / 2.0)
        assert rep.entropy_upper == pytest.approx(LN2 / 1.5)


class TestCoveringAndAmbient:
    def test_covering_matches_lower_formulas(self):
        prof = unit_profile()
        for t in (0.0, 0.3, 0.6):
            rep = covering_bounds(prof, Exponential(t))
            assert rep.entropy_lower == pytest.approx(
                lower_entropy_general(BoundInput(prof, tau(t))), abs=1e-15
            )
            assert rep.entropy_upper is None

    def test_covering_tau_zero(self):
        rep = covering_bounds(unit_profile(), Exponential(0.0))
        assert rep.entropy_lower == pytest.approx(LN2)

    def test_covering_infinite_lambda1(self):
        rep = covering_bounds(one_sided_profile(), Exponential(LN2))
        # limit factor lambda2/(lambda2 + tau) = 1/(1 + ln2)
        assert rep.entropy_lower == pytest.approx(LN2 / (1.0 + LN2), abs=1e-12)

    def test_covering_hypothesis_failure_marks_unavailable(self):
        prof = unit_profile()
        rep = covering_bounds(prof, Exponential(2.0))
        assert rep.entropy_lower is None
        assert ("tau < lambda1", False) in rep.assumptions

    def test_ambient_caps(self):
        one = BoundInput(one_sided_profile(), tau(0.0), hyper_class=Lambda(1.0))
        assert dim_upper_ambient(one) == (pytest.approx(LN2), None)
        two = BoundInput(unit_profile(), tau(0.0), hyper_class=LambdaPair(1.0, 1.0))
        assert dim_upper_ambient(two) == (None, pytest.approx(2.0 * LN2))
        big = BoundInput(one_sided_profile(), tau(0.0), hyper_class=Lambda(1e9))
        assert dim_upper_ambient(big)[0] < 1e-8

    def test_exact_dims_within_ambient(self):
        one = bounds_one_sided_shift(*shift_data(full_shift(2)), tau(0.25))
        assert one.dim_lower <= LN2 + 1e-12
        two = bounds_two_sided_shift(*shift_data(full_shift(2, "two")), tau(0.25))
        assert two.dim_lower <= 2.0 * LN2 + 1e-12


class TestReportInvariants:
    def test_sandwich_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            BoundReport(1.0, 0.5, None, None, CaseTag.GENERIC)

    def test_exact_must_coincide(self):
        with pytest.raises(ValueError, match="coinciding"):
            BoundReport(0.5, 0.6, 0.5, 0.6, CaseTag.EXACT)


class TestBoundaryContinuity:
    def test_two_sided_shift_entropy_into_boundary(self):
        # case-(1) entropy (1-t)/(1+t) h vanishes as t -> 1, matching case (2)
        eps = 1e-8
        rep = bounds_two_sided_shift(*shift_data(full_shift(2, "two")), tau(1.0 - eps))
        assert rep.case_tag is CaseTag.EXACT
        assert 0.0 < rep.entropy_upper < 1e-7
        at = bounds_two_sided_shift(*shift_data(full_shift(2, "two")), tau(1.0))
        assert at.entropy_upper == 0.0

    def test_hyperbolic_set_upper_into_boundary(self):
        prof = unit_profile()
        eps = 1e-8
        rep = bounds_hyperbolic_set(bound_input_from_profile(prof, tau(1.0 - eps)))
        assert 0.0 < rep.entropy_upper < 1e-7

    def test_exact_expanding_tau_to_infinity(self):
        p = analyze_matrix(IntegerMatrixSystem(((2,),)), 1e-9)
        rep = exact_expanding_torus(p, RateExponents(math.inf, math.inf))
        assert rep.entropy_lower == 0.0 and rep.dim_lower == 0.0

    def test_exact_dim_never_exceeds_ambient(self):
        # torus exact dimensions stay below the ambient dimension d = 2
        import random

        rng = random.Random(7)
        checked = 0
        while checked < 25:
            entries = tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2))
            det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
            if abs(det) != 1:
                continue
            p = analyze_matrix(IntegerMatrixSystem(entries), 1e-9)
            if not p.is_hyperbolic or p.lambda_s_mod is None:
                continue
            for t in (0.0, 0.2, 0.5, 1.0):
                rep = exact_toral_automorphism(p, tau(t))
                if rep.dim_upper is not None:
                    assert rep.dim_upper <= 2.0 + 1e-9
            checked += 1
