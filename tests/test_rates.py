import math

import pytest
from hypothesis import given, strategies as st

from shrinktarget.rates import (
    AllTimes,
    Arithmetic,
    Exponential,
    Explicit,
    PiecewiseExponential,
    PowerLaw,
    RateError,
    RateExponents,
    SymbolSequence,
    Tabulated,
    arithmetic_tail,
    family_tau,
    first_member_at_least,
    tau_exponents,
)


def sampled_exponent(phi, residue=None, period=1, lo=101, hi=160):
    """Independent check: evaluate -ln(phi(n))/n on a window where exp(-tau*n)
    is still representable in binary64."""
    ns = [n for n in range(lo, hi) if residue is None or n % period == residue]
    return [-math.log(phi.phi(n)) / n for n in ns]


taus = st.floats(min_value=0.0, max_value=5.0)


@st.composite
def rates(draw):
    kind = draw(st.sampled_from(["exponential", "piecewise", "tabulated"]))
    if kind == "exponential":
        return Exponential(draw(taus))
    if kind == "piecewise":
        ts = draw(st.lists(taus, min_size=1, max_size=6))
        return PiecewiseExponential(len(ts), tuple(ts))
    values = draw(st.lists(st.floats(min_value=1e-300, max_value=1.0), max_size=8))
    return Tabulated(tuple(values), draw(taus))


@st.composite
def unbounded_time_sets(draw):
    tail = Arithmetic(draw(st.integers(0, 40)), draw(st.integers(1, 12)))
    if draw(st.booleans()):
        return tail
    times = draw(st.lists(st.integers(0, 60), unique=True, max_size=5))
    tail = Arithmetic(max(times, default=-1) + 1 + tail.offset, tail.step)
    return Explicit(tuple(sorted(times)), tail=tail)


class TestTauExponents:
    def test_exponential(self):
        assert tau_exponents(Exponential(0.5)) == RateExponents(0.5, 0.5)

    def test_power_law(self):
        assert tau_exponents(PowerLaw(2.0)) == RateExponents(0.0, 0.0)
        # -ln(n^-2)/n = 2 ln n / n -> 0; no underflow risk, sample far out
        assert max(sampled_exponent(PowerLaw(2.0), lo=10_000, hi=10_050)) < 1e-2

    def test_piecewise_exponential(self):
        phi = PiecewiseExponential(2, (1.0, 2.0))
        # derived: along even n the exponent is taus[0]=1, along odd n taus[1]=2
        even = sampled_exponent(phi, residue=0, period=2)
        odd = sampled_exponent(phi, residue=1, period=2)
        assert all(abs(e - 1.0) < 1e-12 for e in even)
        assert all(abs(e - 2.0) < 1e-12 for e in odd)
        assert tau_exponents(phi) == RateExponents(2.0, 1.0)

    def test_tabulated_prefix_is_ignored(self):
        phi = Tabulated(values=(0.9, 0.1, 1.0), tail_tau=0.25)
        assert tau_exponents(phi) == RateExponents(0.25, 0.25)

    def test_exponential_identity_exact(self):
        phi = Exponential(0.5)
        for n in (1, 7, 100):
            assert -math.log(phi.phi(n)) / n == pytest.approx(0.5, abs=1e-12)


class TestFamilyTau:
    def test_componentwise_sup(self):
        fam = [RateExponents(0.5, 0.5), RateExponents(0.3, 0.2)]
        assert family_tau(fam) == RateExponents(0.5, 0.5)

    def test_singleton(self):
        assert family_tau([RateExponents(0.0, 0.0)]) == RateExponents(0.0, 0.0)

    def test_mixed(self):
        fam = [RateExponents(2.0, 1.0), RateExponents(1.0, 1.0)]
        assert family_tau(fam) == RateExponents(2.0, 1.0)

    def test_empty_family_rejected(self):
        with pytest.raises(RateError, match="empty family"):
            family_tau([])


class TestRestrictRate:
    """tau_upper along S: the limsup of -ln(phi(n))/n over n in S only."""

    def test_even_restriction_of_exponential(self):
        # derived: limsup over even n of n*1.0/n = 1.0
        out = tau_exponents(Exponential(1.0), Arithmetic(0, 2))
        assert out == RateExponents(1.0, 1.0)

    def test_all_times_is_identity(self):
        for phi in (Exponential(0.3), PowerLaw(1.0), PiecewiseExponential(2, (1.0, 2.0)), RateExponents(0.7, 0.2)):
            assert tau_exponents(phi, AllTimes()) == tau_exponents(phi)

    def test_piecewise_picks_even_branch(self):
        out = tau_exponents(PiecewiseExponential(2, (1.0, 2.0)), Arithmetic(0, 2))
        assert out == RateExponents(1.0, 1.0)

    def test_bounded_set_rejected(self):
        for phi in (Exponential(1.0), RateExponents(1.0, 1.0)):
            with pytest.raises(RateError, match="bounded"):
                tau_exponents(phi, Explicit((1, 2, 3)))

    def test_explicit_with_tail(self):
        # the explicit times 3 and 5 sit on the residues with taus 2.0 and 3.0,
        # but only the tail 10 + 4k counts, and it stays on residue 2
        s = Explicit((3, 5), tail=Arithmetic(10, 4))
        assert tau_exponents(Exponential(2.0), s) == RateExponents(2.0, 2.0)
        phi = PiecewiseExponential(4, (0.5, 3.0, 1.0, 2.0))
        assert tau_exponents(phi, s) == RateExponents(1.0, 0.5)

    def test_offset_beyond_step_is_exact(self):
        s = Arithmetic(7, 2)
        assert tau_exponents(Exponential(1.0), s) == RateExponents(1.0, 1.0)
        assert tau_exponents(PiecewiseExponential(2, (1.0, 2.0)), s) == RateExponents(2.0, 1.0)
        # gcd(6, 4) = 2: the odd tail 7 + 4k meets residues 1, 3 and 5 mod 6
        phi = PiecewiseExponential(6, (0.0, 0.5, 4.0, 1.5, 6.0, 1.0))
        assert tau_exponents(phi, Arithmetic(7, 4)) == RateExponents(1.5, 0.0)

    @given(phi=rates(), s=unbounded_time_sets())
    def test_matches_sampled_limsup_along_tail(self, phi, s):
        # one full period lcm(period, step) of the tail, past phi's table
        tail = arithmetic_tail(s)
        period = phi.period if isinstance(phi, PiecewiseExponential) else 1
        table = len(phi.values) if isinstance(phi, Tabulated) else 0
        start = first_member_at_least(tail, table + 1)
        window = range(start, start + math.lcm(period, tail.step), tail.step)
        sampled = max(-phi.log_phi(n) / n for n in window)
        got = tau_exponents(phi, s)
        own = phi.exponents()
        assert got.tau_upper == pytest.approx(sampled, rel=0.0, abs=1e-12)
        assert own.tau_lower <= got.tau_upper <= own.tau_upper
        assert got.tau_lower == own.tau_lower


class TestInvariants:
    @given(st.integers(min_value=1, max_value=250))
    def test_phi_in_unit_interval(self, n):
        # n capped where exp(-tau*n) stays above the binary64 underflow floor
        for phi in (
            Exponential(0.7),
            PowerLaw(1.5),
            PiecewiseExponential(3, (0.0, 1.0, 2.5)),
            Tabulated((0.5, 1.0), 0.1),
        ):
            v = phi.phi(n)
            assert 0.0 < v <= 1.0

    @given(st.integers(min_value=1, max_value=10_000_000))
    def test_log_phi_total(self, n):
        # log-space evaluation never under/overflows
        for phi in (Exponential(0.7), PiecewiseExponential(2, (1.0, 2.0))):
            assert phi.log_phi(n) == pytest.approx(-phi.exponents().tau_upper * n, rel=1.0)
            assert phi.log_phi(n) <= 0.0

    @given(
        t1=st.floats(min_value=0.0, max_value=4.0),
        t2=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_tau_monotone_in_pointwise_order(self, t1, t2):
        # phi1 <= phi2 pointwise iff t1 >= t2; then tau_lower(phi1) >= tau_lower(phi2)
        lo, hi = sorted((t1, t2))
        assert tau_exponents(Exponential(hi)).tau_lower >= tau_exponents(
            Exponential(lo)
        ).tau_lower

    def test_exponents_order_enforced(self):
        with pytest.raises(RateError):
            RateExponents(1.0, 2.0)

    def test_tabulated_rejects_out_of_range(self):
        with pytest.raises(RateError, match="rejected"):
            Tabulated((1.5,), 0.1)
        with pytest.raises(RateError, match="rejected"):
            Tabulated((0.0,), 0.1)

    def test_infinity_lives_on_exponents_only(self):
        exp = RateExponents(math.inf, math.inf)
        assert math.isinf(exp.tau_upper)
        with pytest.raises(RateError):
            Exponential(math.inf)


class TestTimeSets:
    def test_membership(self):
        s = Arithmetic(1, 3)
        assert [n for n in range(12) if s.contains(n)] == [1, 4, 7, 10]

    def test_first_member_at_least(self):
        assert first_member_at_least(Arithmetic(1, 3), 5) == 7
        assert first_member_at_least(AllTimes(), 9) == 9
        s = Explicit((2, 8), tail=Arithmetic(20, 5))
        assert first_member_at_least(s, 3) == 8
        assert first_member_at_least(s, 9) == 20
        assert first_member_at_least(s, 21) == 25

    def test_explicit_validation(self):
        with pytest.raises(RateError, match="strictly increasing"):
            Explicit((3, 3))
        with pytest.raises(RateError, match="strictly after"):
            Explicit((5,), tail=Arithmetic(4, 2))
        assert arithmetic_tail(Explicit((1, 2))) is None
        assert arithmetic_tail(Explicit((1, 2), tail=Arithmetic(10, 1))) == Arithmetic(10, 1)
        assert arithmetic_tail(AllTimes()) == Arithmetic(0, 1)


class TestSymbolSequence:
    def test_eventually_periodic_lookup(self):
        z = SymbolSequence(head=(1, 0), cycle=(0, 0, 1))
        assert z.prefix(8) == (1, 0, 0, 0, 1, 0, 0, 1)

    def test_empty_cycle_rejected(self):
        with pytest.raises(RateError):
            SymbolSequence(head=(), cycle=())
