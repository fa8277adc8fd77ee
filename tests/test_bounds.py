import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget.bounds import (
    BOUNDARY_TOL,
    BoundReport,
    CaseTag,
    HypothesisViolatedError,
    bounds_expanding,
    bounds_general_profile,
    bounds_hyperbolic_set,
    bounds_one_sided_shift,
    bounds_two_sided_shift,
    covering_bounds,
    lower_factor,
    tau_runs,
)
from shrinktarget.cli import (
    _SWEEP_COLUMNS,
    EvalContext,
    TaskError,
    _context,
    evaluate,
    fmt,
    sweep_rows,
    system_facts,
)
from shrinktarget.rates import Exponential, RateError, RateExponents
from shrinktarget.symbolic import (
    ShiftOfFiniteType,
    SoficPresentation,
    period_decomposition,
    sft_entropy,
)
from shrinktarget.systems import (
    HyperbolicityProfile,
    IntegerMatrixSystem,
    analyze_matrix,
    sharp_profile_from_matrix,
)
from shift_strategies import full_shift, golden_mean_shift

LN2 = math.log(2.0)
CAT = IntegerMatrixSystem(((2, 1), (1, 1)))
CAT_SPECTRUM = analyze_matrix(CAT)
CAT_SHARP = sharp_profile_from_matrix(CAT, CAT_SPECTRUM)
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


def sharp(entries):
    m = IntegerMatrixSystem(entries)
    return sharp_profile_from_matrix(m, analyze_matrix(m))


# The paper's closed forms for the exact-value theorems, written out from the
# spectrum alone, as independent references for the sharp-profile sandwich.


def closed_form_toral(p, t):
    """Two-modulus automorphism: a = ln|lambda_s|^-1, b = ln|lambda_u|."""
    a = -math.log(p.lambda_s_mod)
    b = math.log(p.lambda_u_mod)
    if not math.isinf(t) and t < a - BOUNDARY_TOL:
        h = p.d_s * (a * b - t * b) / (b + t)
        dim = p.d_s * (a + b) / (b + t)
        return CaseTag.EXACT, h, h, dim, dim
    if not math.isinf(t) and abs(t - a) <= BOUNDARY_TOL:
        return CaseTag.BOUNDARY_ZERO, 0.0, 0.0, None, float(p.d_s)
    return CaseTag.DEGENERATE_ZERO, 0.0, 0.0, 0.0, 0.0


def closed_form_expanding(p, t):
    """Expanding matrix: exact for equal moduli, else the modulus sandwich."""
    big_h = sum(c.multiplicity * math.log(c.modulus) for c in p.clusters)
    if len(p.clusters) == 1:
        b = math.log(p.max_modulus)
        h, dim = (0.0, 0.0) if math.isinf(t) else (p.dim * b * b / (b + t), p.dim * b / (b + t))
        return CaseTag.EXACT, h, h, dim, dim
    ln1 = math.log(p.min_modulus)
    lnd = math.log(p.max_modulus)
    f1, fd = (0.0, 0.0) if math.isinf(t) else (ln1 / (ln1 + t), lnd / (lnd + t))
    return CaseTag.GENERIC, f1 * big_h, fd * big_h, f1 * big_h / lnd, fd * big_h / ln1


def sides(rep):
    return rep.case_tag, rep.entropy_lower, rep.entropy_upper, rep.dim_lower, rep.dim_upper


class TestLowerFactor:
    def test_zero_tau_gives_full_entropy(self):
        rep = bounds_general_profile(unit_profile(), tau(0.0))
        assert rep.entropy_lower == pytest.approx(LN2, abs=1e-15)

    def test_unit_exponents_half_tau(self):
        # (1 - 0.5)/(1 + 0.5) = 1/3
        rep = bounds_general_profile(unit_profile(), tau(0.5))
        assert rep.entropy_lower == pytest.approx(LN2 / 3.0, abs=1e-15)

    def test_infinite_lambda1_limit(self):
        # limit factor lambda2/(lambda2 + tau) = ln2/(2 ln2) = 1/2
        prof = HyperbolicityProfile(lambda1=math.inf, lambda2=LN2, ln_l2=LN2, h_top=LN2)
        rep = bounds_general_profile(prof, tau(LN2))
        assert rep.entropy_lower == pytest.approx(LN2 / 2.0, abs=1e-15)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolatedError):
            lower_factor(1.0, 1.0, 1.5)
        with pytest.raises(HypothesisViolatedError):
            lower_factor(1.0, 1.0, 1.0)  # boundary not asserted

    def test_chi_zero_matches_plain_factor(self):
        for t in (0.0, 0.3, 0.7):
            assert lower_factor(1.0, 2.0, t) == pytest.approx(
                (1.0 * 2.0 - 2.0 * t) / (1.0 * 2.0 + 1.0 * t), abs=1e-15
            )

    @given(
        lam1=st.floats(min_value=0.1, max_value=5.0),
        lam2=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_monotone_nonincreasing_in_tau(self, lam1, lam2):
        taus = [lam1 * k / 10.0 for k in range(10)]
        vals = [lower_factor(lam1, lam2, t) for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLowerDimension:
    def test_two_sided_full_shift_ambient(self):
        rep = bounds_general_profile(unit_profile(), tau(0.0))
        assert rep.dim_lower == pytest.approx(2.0 * LN2, abs=1e-15)

    def test_one_sided_full_shift(self):
        rep = bounds_general_profile(one_sided_profile(), tau(1.0))
        assert rep.dim_lower == pytest.approx(LN2 / 2.0, abs=1e-15)

    def test_dim_vanishes_as_lipschitz_grows(self):
        ent = None
        prev = math.inf
        for lnl in (1.0, 10.0, 100.0, 1000.0):
            prof = HyperbolicityProfile(lambda1=math.inf, lambda2=1.0, ln_l2=lnl, h_top=LN2)
            rep = bounds_general_profile(prof, tau(0.5))
            d = rep.dim_lower
            assert d < prev
            prev = d
            e = rep.entropy_lower
            assert ent is None or e == pytest.approx(ent)
            ent = e
        assert prev < 1e-3


class TestUpperBounds:
    def test_lipschitz_case(self):
        prof = HyperbolicityProfile(lambda1=math.inf, lambda2=LN2, ln_l2=LN2, h_top=LN2)
        rep = bounds_general_profile(prof, tau(LN2))
        assert rep.entropy_upper == pytest.approx(LN2 / 2.0, abs=1e-15)
        assert rep.dim_upper == pytest.approx(0.5, abs=1e-15)

    def test_boundary_case(self):
        rep = bounds_general_profile(unit_profile(), tau(1.0))
        assert rep.case_tag is CaseTag.BOUNDARY_ZERO
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper == pytest.approx(LN2)

    def test_degenerate_case(self):
        rep = bounds_general_profile(unit_profile(), tau(2.0))
        assert rep.case_tag is CaseTag.DEGENERATE_ZERO
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper == 0.0

    def test_infinite_tau_lower(self):
        exps = RateExponents(math.inf, math.inf)
        rep = bounds_general_profile(one_sided_profile(), exps)
        assert rep.entropy_upper == 0.0 and rep.dim_upper == 0.0
        rep2 = bounds_general_profile(unit_profile(), exps)
        assert rep2.entropy_upper == 0.0 and rep2.dim_upper == 0.0

    @given(t=st.floats(min_value=0.0, max_value=0.99))
    def test_upper_nonincreasing_in_tau(self, t):
        def h_up(tv):
            return bounds_general_profile(unit_profile(), tau(tv)).entropy_upper

        assert h_up(t) >= h_up(min(t + 0.01, 0.999)) - 1e-12


class TestExactToral:
    def test_cat_map_tau_zero(self):
        rep = bounds_hyperbolic_set(CAT_SHARP, tau(0.0))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(CAT_LOG_UNSTABLE, abs=1e-9)
        assert rep.dim_lower == pytest.approx(2.0, abs=1e-9)

    def test_cat_map_half_log_unstable(self):
        rep = bounds_hyperbolic_set(CAT_SHARP, tau(CAT_LOG_UNSTABLE / 2.0))
        assert rep.entropy_lower == pytest.approx(CAT_LOG_UNSTABLE / 3.0, abs=1e-12)
        assert rep.dim_lower == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_cat_map_boundary(self):
        rep = bounds_hyperbolic_set(CAT_SHARP, tau(CAT_LOG_UNSTABLE))
        assert rep.case_tag is CaseTag.BOUNDARY_ZERO
        assert rep.entropy_upper == 0.0
        assert rep.dim_upper == 1.0
        assert rep.dim_lower is None

    def test_cat_map_beyond(self):
        rep = bounds_hyperbolic_set(CAT_SHARP, tau(1.5))
        assert rep.case_tag is CaseTag.DEGENERATE_ZERO
        assert rep.dim_upper == 0.0

    def test_boundary_continuity(self):
        rep = bounds_hyperbolic_set(CAT_SHARP, tau(CAT_LOG_UNSTABLE - 1e-8))
        assert rep.case_tag is CaseTag.EXACT
        assert 0.0 < rep.entropy_lower < 1e-7

    def test_requires_unit_determinant(self):
        facts = system_facts(IntegerMatrixSystem(((3, 1), (1, 1))), "matrix")  # det 2
        if facts.spectrum.lambda_s_mod is not None:
            with pytest.raises(HypothesisViolatedError, match="det"):
                evaluate(facts, tau(0.0), EvalContext("exact"))

    def test_cross_path_agreement_with_hyperbolic_set(self):
        # the sharp-profile sandwich against the paper's closed form
        for t in (0.0, 0.2, 0.45, CAT_LOG_UNSTABLE / 2.0):
            _, h_exact, _, dim_exact, _ = closed_form_toral(CAT_SPECTRUM, t)
            via_set = bounds_hyperbolic_set(CAT_SHARP, tau(t))
            assert via_set.case_tag is CaseTag.EXACT
            assert via_set.entropy_lower == pytest.approx(h_exact, abs=1e-10)
            assert via_set.dim_lower == pytest.approx(dim_exact, abs=1e-10)


class TestHyperbolicSet:
    def test_crude_profile_strict_sandwich(self):
        from shrinktarget.systems import crude_profile_from_matrix

        m = IntegerMatrixSystem(((3, 1), (2, 1)))  # nonsymmetric, det 1
        crude = crude_profile_from_matrix(m, analyze_matrix(m))
        rep = bounds_hyperbolic_set(crude, tau(0.1))
        assert rep.case_tag is CaseTag.GENERIC
        assert rep.entropy_lower < rep.entropy_upper
        assert rep.dim_lower < rep.dim_upper

    def test_lower_unavailable_when_tau_large(self):
        prof = HyperbolicityProfile(lambda1=0.5, lambda2=1.0, ln_l2=2.0, h_top=1.0, ln_l1=1.0)
        rep = bounds_hyperbolic_set(prof, tau(0.7))
        assert rep.entropy_lower is None
        assert rep.entropy_upper is not None


class TestExpanding:
    def test_doubling_exact(self):
        rep = bounds_expanding(sharp(((2,),)), tau(LN2))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(LN2 / 2.0, abs=1e-12)
        assert rep.dim_lower == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_equal_moduli(self):
        rep = bounds_expanding(sharp(((2, 0), (0, 2))), tau(0.0))
        assert rep.entropy_lower == pytest.approx(2.0 * LN2, abs=1e-12)
        assert rep.dim_lower == pytest.approx(2.0, abs=1e-12)

    def test_distinct_moduli_strict_sandwich(self):
        rep = bounds_expanding(sharp(((2, 0), (0, 3))), tau(0.1))
        assert rep.case_tag is CaseTag.GENERIC
        assert rep.entropy_lower < rep.entropy_upper
        assert rep.dim_lower < rep.dim_upper

    def test_bounds_expanding_exact_at_matching_constants(self):
        rep = bounds_expanding(sharp(((2,),)), tau(LN2))
        assert rep.case_tag is CaseTag.EXACT
        assert rep.entropy_lower == pytest.approx(LN2 / 2.0, abs=1e-12)
        assert rep.dim_lower == pytest.approx(0.5, abs=1e-12)
        assert rep.notes  # records the exactness-condition reading

    def test_non_expanding_rejected(self):
        with pytest.raises(HypothesisViolatedError):
            bounds_expanding(CAT_SHARP, tau(0.0))


# every 2x2 matrix with entries in [-5, 5] that is a hyperbolic automorphism:
# det 1 and |trace| > 2, or det -1 and trace != 0 (two real moduli around 1)
UNIT_DET_HYPERBOLIC = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-5, 6), repeat=4)
    if (a * d - b * c == 1 and abs(a + d) > 2) or (a * d - b * c == -1 and a + d != 0)
]


def exact_row(entries, t):
    """The spectrum and the (rule, report) row of the CLI's exact task."""
    facts = system_facts(IntegerMatrixSystem(entries), "matrix")
    ((rule, rep),) = evaluate(facts, tau(t), EvalContext("exact"))
    return facts.spectrum, rule, rep


def assert_closed_form(rep, want):
    assert rep.case_tag is want[0]
    for got, expected in zip(sides(rep)[1:], want[1:]):
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, rel=1e-12)


class TestExactClosedForms:
    @given(entries=st.sampled_from(UNIT_DET_HYPERBOLIC), t=st.floats(min_value=0.0, max_value=2.0))
    def test_toral_automorphism(self, entries, t):
        p, rule, rep = exact_row(entries, t)
        assert rule == "toral_automorphism_exact"
        assert_closed_form(rep, closed_form_toral(p, t))

    @given(
        a=st.integers(min_value=2, max_value=9),
        b=st.integers(min_value=2, max_value=9),
        t=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_expanding_diagonal(self, a, b, t):
        # a == b gives the equal-moduli EXACT row, a != b the sandwich
        p, rule, rep = exact_row(((a, 0), (0, b)), t)
        assert rule == "expanding_torus_exact"
        assert_closed_form(rep, closed_form_expanding(p, t))

    def test_unequal_exponents_and_complex_pair(self):
        # companion of x^3 - x - 1: a complex pair inside the unit circle and
        # the plastic number outside, so d_s = 2, d_u = 1 and a != b
        entries = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
        for t in (0.0, 0.05, 0.1, 0.2):
            p, rule, rep = exact_row(entries, t)
            assert rule == "toral_automorphism_exact"
            assert_closed_form(rep, closed_form_toral(p, t))
            assert any("complex eigenvalues" in note for note in rep.notes)

    def test_boundary_and_beyond(self):
        a = CAT_LOG_UNSTABLE
        for t in (a, a + 1e-13, 1.5, math.inf):
            p, _, rep = exact_row(((2, 1), (1, 1)), t)
            assert_closed_form(rep, closed_form_toral(p, t))


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
                bounds_general_profile(prof, tau(t)).entropy_lower, abs=1e-15
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

    def test_checks_hold_for_every_array_element(self):
        lo, hi = np.array([0.1, 1.0, 0.2]), np.array([0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="lower bound 1.0 exceeds upper bound 0.5"):
            BoundReport(lo, hi, None, None, CaseTag.GENERIC)
        with pytest.raises(ValueError, match="coinciding"):
            BoundReport(hi, hi, lo, np.array([0.1, 1.0, 0.3]), CaseTag.EXACT)
        BoundReport(np.array([np.nan, 0.4]), 0.5, None, None, CaseTag.GENERIC)  # NaN: not asserted
        with pytest.raises(RateError, match=r"tau_lower must be in \[0, \+inf\], got nan"):
            RateExponents(np.array([0.5, 1.0]), np.array([0.5, np.nan]))
        with pytest.raises(RateError, match="tau_lower=0.7 exceeds tau_upper=0.6"):
            RateExponents(np.array([0.5, 0.6]), np.array([0.5, 0.7]))

    def test_a_run_must_not_straddle_a_threshold(self):
        taus = np.array([0.5, 1.5])
        with pytest.raises(ValueError, match="split the grid"):
            bounds_two_sided_shift(True, LN2, RateExponents(taus, taus))
        assert tau_runs(taus, (1.0,)) == [slice(0, 1), slice(1, 2)]
        assert tau_runs(np.array([]), (1.0,)) == []


def _per_tau_row(facts, t):
    """The sweep row at one tau, from a float evaluation (the reference)."""
    ((_, rep),) = evaluate(facts, RateExponents(t, t), _context(facts, "sweep"))
    sides = (rep.entropy_lower, rep.entropy_upper, rep.dim_lower, rep.dim_upper)
    return dict(zip(_SWEEP_COLUMNS, (fmt(t), *map(fmt, sides), rep.case_tag.value)))


def _outcome(rows):
    """The rows ``rows()`` gives, or the task error it raises."""
    try:
        return rows()
    except TaskError as exc:
        return f"{type(exc).__name__}: {exc}"


SWEEP_FACTS = {
    name: system_facts(system, kind)
    for name, system, kind in (
        ("sft_one_mixing", golden_mean_shift(), "sft"),
        ("sft_two_mixing", ShiftOfFiniteType(((1, 1), (1, 0)), "two"), "sft"),
        # period 2; the golden cases give the first a common index, the second none
        ("sft_one_period2", ShiftOfFiniteType(((0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0))), "sft"),
        ("sft_two_period2", ShiftOfFiniteType(((0, 1), (1, 0)), "two"), "sft"),
        ("sofic_two_period2", SoficPresentation(2, ((0, 1, "a"), (0, 1, "b"), (1, 0, "c")), "two"), "sofic"),
        ("expanding_sharp", IntegerMatrixSystem(((2, 0), (0, 3))), "matrix"),
        ("automorphism_sharp", CAT, "matrix"),
        ("crude_fallback", IntegerMatrixSystem(((0, 0, 1), (1, 0, 4), (0, 1, 0))), "matrix"),
        ("profile_lipschitz", HyperbolicityProfile(lambda1=math.inf, lambda2=0.7, ln_l2=1.1, h_top=1.3), "profile"),
        ("profile_bilipschitz", HyperbolicityProfile(lambda1=1.0, lambda2=1.5, ln_l1=1.2, ln_l2=1.7, h_top=0.9), "profile"),
    )
}
_POSITIVE = st.floats(min_value=0.05, max_value=3.0)
# any constants, so that the lower side may exceed the upper one (the regime conflict)
RANDOM_PROFILES = st.one_of(
    st.builds(HyperbolicityProfile, lambda1=_POSITIVE, lambda2=_POSITIVE, ln_l1=_POSITIVE, ln_l2=_POSITIVE, h_top=_POSITIVE),
    st.builds(HyperbolicityProfile, lambda1=st.just(math.inf), lambda2=_POSITIVE, ln_l2=_POSITIVE, h_top=_POSITIVE),
).map(lambda p: system_facts(p, "profile"))


class TestSweepRuns:
    @settings(max_examples=300, deadline=None)
    @given(facts=st.one_of(st.sampled_from(list(SWEEP_FACTS.values())), RANDOM_PROFILES), data=st.data())
    def test_rows_equal_the_per_tau_evaluation(self, facts, data):
        p = facts.profile if facts.kind == "profile" else facts.sharp if facts.sharp is not None else facts.crude
        # ln L1 of a shift is 1; a Lipschitz profile has ln L2 alone
        ln_l = 1.0 if p is None else p.ln_l1 if p.ln_l1 is not None else p.ln_l2
        special = {0.0, math.inf, 1.0, ln_l}
        special |= {ln_l + d for d in (-2e-12, -5e-13, 5e-13, 2e-12)}
        if p is not None and p.lambda1 < math.inf:
            special.add(p.lambda1)
        picked = data.draw(st.sets(st.sampled_from(sorted(special))))
        extra = data.draw(st.sets(st.floats(min_value=0.0, max_value=3.0), max_size=20))
        taus = sorted(picked | extra)
        # a profile whose constants are below its exponents may fail the sandwich check
        want = _outcome(lambda: [_per_tau_row(facts, t) for t in taus])
        assert _outcome(lambda: sweep_rows(facts, taus)) == want

    def test_regime_conflict_masks_single_elements(self):
        # lambda1 > ln L1: the lower side exceeds the upper one from some tau on,
        # within one generic run
        facts = system_facts(HyperbolicityProfile(lambda1=2.0, lambda2=1.0, ln_l1=1.0, ln_l2=4.0, h_top=1.0), "profile")
        taus = [0.0, 0.1, 0.2, 0.3]
        rows = sweep_rows(facts, taus)
        assert [row["h_lower"] for row in rows] == ["1", "0.863636363636", "0.75", None]
        assert {row["case_tag"] for row in rows} == {"generic"}
        assert rows == [_per_tau_row(facts, t) for t in taus]


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
        rep = bounds_hyperbolic_set(prof, tau(1.0 - eps))
        assert 0.0 < rep.entropy_upper < 1e-7

    def test_exact_expanding_tau_to_infinity(self):
        rep = bounds_expanding(sharp(((2,),)), RateExponents(math.inf, math.inf))
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
            m = IntegerMatrixSystem(entries)
            p = analyze_matrix(m)
            if not p.is_hyperbolic or p.lambda_s_mod is None:
                continue
            for t in (0.0, 0.2, 0.5, 1.0):
                rep = bounds_hyperbolic_set(sharp_profile_from_matrix(m, p), tau(t))
                if rep.dim_upper is not None:
                    assert rep.dim_upper <= 2.0 + 1e-9
            checked += 1
