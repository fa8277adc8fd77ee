import math
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from shrinktarget.oracle import required_exponent
from shrinktarget.rates import (
    EventuallyPeriodic,
    Exponential,
    PowerLaw,
    RateError,
    RateExponents,
    RateFunction,
    TimeSet,
    family_tau,
    tau_exponents,
)


def sampled_exponent(phi, residue=None, period=1, lo=101, hi=160):
    """Evaluate -ln(phi(n))/n, from log_phi, on a window of times."""
    ns = [n for n in range(lo, hi) if residue is None or n % period == residue]
    return [-phi.log_phi(n) / n for n in ns]


taus = st.floats(min_value=0.0, max_value=5.0)


@st.composite
def rates(draw):
    kind = draw(st.sampled_from(["exponential", "piecewise", "tabulated"]))
    if kind == "exponential":
        return Exponential((draw(taus),))
    if kind == "piecewise":
        ts = draw(st.lists(taus, min_size=1, max_size=6))
        return Exponential(tuple(ts))
    values = draw(st.lists(st.floats(min_value=1e-300, max_value=1.0), max_size=8))
    return Exponential((draw(taus),), tuple(values))


@st.composite
def unbounded_time_sets(draw):
    offset, step = draw(st.integers(0, 40)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        return TimeSet(offset, step)
    times = draw(st.lists(st.integers(0, 60), unique=True, max_size=5))
    return TimeSet(max(times, default=-1) + 1 + offset, step, tuple(sorted(times)))


class TestTauExponents:
    def test_exponential(self):
        assert tau_exponents(Exponential((0.5,))) == RateExponents(0.5, 0.5)

    def test_power_law(self):
        assert tau_exponents(PowerLaw(2.0)) == RateExponents(0.0, 0.0)
        # -ln(n^-2)/n = 2 ln n / n -> 0; no underflow risk, sample far out
        assert max(sampled_exponent(PowerLaw(2.0), lo=10_000, hi=10_050)) < 1e-2

    def test_piecewise_exponential(self):
        phi = Exponential((1.0, 2.0))
        # derived: along even n the exponent is taus[0]=1, along odd n taus[1]=2
        even = sampled_exponent(phi, residue=0, period=2)
        odd = sampled_exponent(phi, residue=1, period=2)
        assert all(abs(e - 1.0) < 1e-12 for e in even)
        assert all(abs(e - 2.0) < 1e-12 for e in odd)
        assert tau_exponents(phi) == RateExponents(2.0, 1.0)

    def test_tabulated_prefix_is_ignored(self):
        phi = Exponential((0.25,), values=(0.9, 0.1, 1.0))
        assert tau_exponents(phi) == RateExponents(0.25, 0.25)

    def test_tabulated_time_zero_reads_the_tail(self):
        # time 0 is before the table: ln phi(0) = -tau * 0 = 0, not
        # ln values[-1] by a negative index
        phi = Exponential((0.5,), (1.0, 1e-300))
        assert phi.log_phi(0) == 0.0
        assert phi.log_phi(2) == math.log(1e-300)
        assert required_exponent(phi, 0) == 1

    def test_exponential_identity_exact(self):
        phi = Exponential((0.5,))
        for n in (1, 7, 100):
            assert -phi.log_phi(n) / n == pytest.approx(0.5, abs=1e-12)


# The three exponential rate types that ``Exponential(taus, values)`` replaced,
# as they were: the differential below pins the one type to them.


@dataclass(frozen=True)
class SingleExponential:
    tau: float

    def __post_init__(self):
        if not (self.tau >= 0.0) or math.isinf(self.tau):
            raise RateError("tau")

    def log_phi(self, n):
        return -self.tau * n

    def exponents(self):
        return RateExponents(self.tau, self.tau)


@dataclass(frozen=True)
class PiecewiseExponential:
    period: int
    taus: tuple

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        if self.period < 1 or len(self.taus) != self.period:
            raise RateError("period")
        if any(not (t >= 0.0) or math.isinf(t) for t in self.taus):
            raise RateError("taus")

    def log_phi(self, n):
        return -self.taus[n % self.period] * n

    def exponents(self):
        return RateExponents(max(self.taus), min(self.taus))


@dataclass(frozen=True)
class Tabulated:
    values: tuple
    tail_tau: float

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if any(not (0.0 < v <= 1.0) for v in self.values):
            raise RateError("values")
        if not (self.tail_tau >= 0.0) or math.isinf(self.tail_tau):
            raise RateError("tail_tau")

    def log_phi(self, n):
        if 0 < n <= len(self.values):
            return math.log(self.values[n - 1])
        return -self.tail_tau * n

    def exponents(self):
        return RateExponents(self.tail_tau, self.tail_tau)


def old_tau_exponents(phi, s=None):
    own = phi.exponents()
    if s is not None and isinstance(phi, PiecewiseExponential):
        g = math.gcd(phi.period, s.step)
        return RateExponents(max(phi.taus[s.offset % g :: g]), own.tau_lower)
    return own


def built(make, *args):
    """``make(*args)``, or None where it raises RateError."""
    try:
        return make(*args)
    except RateError:
        return None


# every float a config or a caller may pass, the rejected ones included
any_floats = st.one_of(taus, st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def old_and_new(draw):
    """One rate of each old type's parameters, built both ways (None where rejected)."""
    kind = draw(st.sampled_from(["exponential", "piecewise", "tabulated"]))
    if kind == "exponential":
        tau = draw(any_floats)
        return built(SingleExponential, tau), built(Exponential, (tau,))
    if kind == "piecewise":
        ts = tuple(draw(st.lists(any_floats, min_size=1, max_size=6)))
        return built(PiecewiseExponential, len(ts), ts), built(Exponential, ts)
    values = tuple(draw(st.lists(st.one_of(st.floats(min_value=1e-300, max_value=1.0), any_floats), max_size=8)))
    tau = draw(any_floats)
    return built(Tabulated, values, tau), built(Exponential, (tau,), values)


class TestOneExponentialType:
    @given(pair=old_and_new(), ns=st.lists(st.integers(0, 10**7), max_size=20), s=unbounded_time_sets())
    def test_matches_the_three_old_types(self, pair, ns, s):
        old, new = pair
        assert (old is None) == (new is None)
        if old is None:
            return
        for n in [0, 1, 2, 3, 5, 8, 9, 100, *ns]:
            assert float.hex(new.log_phi(n)) == float.hex(old.log_phi(n))
        assert tau_exponents(new) == old_tau_exponents(old)
        assert tau_exponents(new, s) == old_tau_exponents(old, s)
        assert tau_exponents(new, TimeSet()) == old_tau_exponents(old, TimeSet())

    def test_rejects_what_the_old_types_rejected(self):
        with pytest.raises(RateError, match="at least one tau"):
            Exponential(())
        with pytest.raises(RateError, match="tau must be a nonnegative real"):
            Exponential((0.5, -1.0))
        with pytest.raises(RateError, match="tau must be a nonnegative real"):
            Exponential((math.nan,))
        with pytest.raises(RateError, match="tau must be finite"):
            Exponential((0.25, math.inf))
        with pytest.raises(RateError, match=r"values\[1\]=1.5 outside \(0, 1\]"):
            Exponential((0.5,), (0.5, 1.5))

    def test_parses_no_strings(self):
        # the old piecewise and tabulated types cast float("0.5") to 0.5
        with pytest.raises(TypeError):
            Exponential(("0.5",))
        with pytest.raises(TypeError):
            Exponential((0.5,), ("0.5",))

    def test_one_tau_and_no_table_is_pure(self):
        assert Exponential((0.5,)) == Exponential([0.5], []) == Exponential((0.5,), ())
        assert Exponential((0.5,)) != Exponential((0.5, 0.5))


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
        out = tau_exponents(Exponential((1.0,)), TimeSet(0, 2))
        assert out == RateExponents(1.0, 1.0)

    def test_all_times_is_identity(self):
        for phi in (Exponential((0.3,)), PowerLaw(1.0), Exponential((1.0, 2.0)), RateExponents(0.7, 0.2)):
            assert tau_exponents(phi, TimeSet()) == tau_exponents(phi)

    def test_piecewise_picks_even_branch(self):
        out = tau_exponents(Exponential((1.0, 2.0)), TimeSet(0, 2))
        assert out == RateExponents(1.0, 1.0)

    def test_explicit_with_tail(self):
        # the explicit times 3 and 5 sit on the residues with taus 2.0 and 3.0,
        # but only the tail 10 + 4k counts, and it stays on residue 2
        s = TimeSet(10, 4, (3, 5))
        assert tau_exponents(Exponential((2.0,)), s) == RateExponents(2.0, 2.0)
        phi = Exponential((0.5, 3.0, 1.0, 2.0))
        assert tau_exponents(phi, s) == RateExponents(1.0, 0.5)

    def test_offset_beyond_step_is_exact(self):
        s = TimeSet(7, 2)
        assert tau_exponents(Exponential((1.0,)), s) == RateExponents(1.0, 1.0)
        assert tau_exponents(Exponential((1.0, 2.0)), s) == RateExponents(2.0, 1.0)
        # gcd(6, 4) = 2: the odd tail 7 + 4k meets residues 1, 3 and 5 mod 6
        phi = Exponential((0.0, 0.5, 4.0, 1.5, 6.0, 1.0))
        assert tau_exponents(phi, TimeSet(7, 4)) == RateExponents(1.5, 0.0)

    @given(phi=rates(), s=unbounded_time_sets())
    def test_matches_sampled_limsup_along_tail(self, phi, s):
        # one full period lcm(period, step) of the tail, past phi's table
        tail = TimeSet(s.offset, s.step)
        period = len(phi.taus)
        table = len(phi.values)
        start = tail.first_at_least(table + 1)
        window = range(start, start + math.lcm(period, s.step), s.step)
        sampled = max(-phi.log_phi(n) / n for n in window)
        got = tau_exponents(phi, s)
        own = tau_exponents(phi)
        assert got.tau_upper == pytest.approx(sampled, rel=0.0, abs=1e-12)
        assert own.tau_lower <= got.tau_upper <= own.tau_upper
        assert got.tau_lower == own.tau_lower


class TestInvariants:
    @given(st.integers(min_value=1, max_value=250))
    def test_phi_in_unit_interval(self, n):
        # n capped where exp(-tau*n) stays above the binary64 underflow floor
        for phi in (
            Exponential((0.7,)),
            PowerLaw(1.5),
            Exponential((0.0, 1.0, 2.5)),
            Exponential((0.1,), (0.5, 1.0)),
        ):
            v = math.exp(phi.log_phi(n))
            assert 0.0 < v <= 1.0

    @given(st.integers(min_value=1, max_value=10_000_000))
    def test_log_phi_total(self, n):
        # log-space evaluation never under/overflows
        for phi in (Exponential((0.7,)), Exponential((1.0, 2.0))):
            assert phi.log_phi(n) == pytest.approx(-tau_exponents(phi).tau_upper * n, rel=1.0)
            assert phi.log_phi(n) <= 0.0

    @pytest.mark.parametrize("a", [0.0, 1.5, 300.0, 1e300])
    def test_power_law_log_phi_past_underflow(self, a):
        # n^-a underflows to 0 for a >= 300 at n = 21, and ln 0 is a domain error
        phi = PowerLaw(a)
        assert phi.log_phi(0) == phi.log_phi(1) == 0.0
        assert phi.log_phi(21) == -a * math.log(21)
        if a < 100:
            assert phi.log_phi(21) == pytest.approx(math.log(21.0 ** -a), rel=1e-12, abs=1e-300)

    def test_base_log_phi_has_no_fallback(self):
        # no rate may take the log of a phi value that may have underflowed
        class Halves(RateFunction):
            def phi(self, n):
                return 0.5**n

        with pytest.raises(NotImplementedError):
            Halves().log_phi(3)

    @given(
        t1=st.floats(min_value=0.0, max_value=4.0),
        t2=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_tau_monotone_in_pointwise_order(self, t1, t2):
        # phi1 <= phi2 pointwise iff t1 >= t2; then tau_lower(phi1) >= tau_lower(phi2)
        lo, hi = sorted((t1, t2))
        assert tau_exponents(Exponential((hi,))).tau_lower >= tau_exponents(
            Exponential((lo,))
        ).tau_lower

    def test_exponents_order_enforced(self):
        with pytest.raises(RateError):
            RateExponents(1.0, 2.0)

    def test_tabulated_rejects_out_of_range(self):
        with pytest.raises(RateError, match="rejected"):
            Exponential((0.1,), (1.5,))
        with pytest.raises(RateError, match="rejected"):
            Exponential((0.1,), (0.0,))

    def test_infinity_lives_on_exponents_only(self):
        exp = RateExponents(math.inf, math.inf)
        assert math.isinf(exp.tau_upper)
        with pytest.raises(RateError):
            Exponential((math.inf,))


class TestTimeSets:
    def test_membership(self):
        s = TimeSet(1, 3)
        assert [n for n in range(12) if s.contains(n)] == [1, 4, 7, 10]
        s = TimeSet(20, 5, (2, 8))
        assert [n for n in range(31) if s.contains(n)] == [2, 8, 20, 25, 30]

    def test_first_member_at_least(self):
        assert TimeSet(1, 3).first_at_least(5) == 7
        assert TimeSet().first_at_least(9) == 9
        s = TimeSet(20, 5, (2, 8))
        assert s.first_at_least(-4) == 2
        assert s.first_at_least(3) == 8
        assert s.first_at_least(9) == 20
        assert s.first_at_least(21) == 25

    def test_explicit_validation(self):
        with pytest.raises(RateError, match="offset must be >= 0"):
            TimeSet(-1, 1)
        with pytest.raises(RateError, match="step must be >= 1"):
            TimeSet(0, 0)
        with pytest.raises(RateError, match="nonnegative"):
            TimeSet(10, 1, (-1, 3))
        with pytest.raises(RateError, match="strictly increasing"):
            TimeSet(10, 1, (3, 3))
        with pytest.raises(RateError, match="strictly after"):
            TimeSet(4, 2, (5,))

    def test_cofinite_is_step_one(self):
        # only the tail decides which times recur: a head or an offset
        # leaves out finitely many naturals, a step of 2 infinitely many
        assert TimeSet().cofinite and TimeSet(5, 1).cofinite and TimeSet(3, 1, (0, 1, 2)).cofinite
        assert not TimeSet(0, 2).cofinite and not TimeSet(3, 2, (0, 1, 2)).cofinite

    @given(s=unbounded_time_sets(), n=st.integers(-5, 120))
    def test_first_at_least_and_contains_match_a_scan(self, s, n):
        # offsets stay below 102 and steps below 13, so a member past 120
        # lies below 300, and the scan from 0 to there decides both
        members = sorted(set(s.times) | set(range(s.offset, 300, s.step)))
        assert [m for m in range(300) if s.contains(m)] == members
        assert s.first_at_least(n) == min(m for m in members if m >= n)
        assert s.cofinite == (s.offset + 1 in members)


class TestEventuallyPeriodic:
    def test_eventually_periodic_lookup(self):
        z = EventuallyPeriodic(head=(1, 0), cycle=(0, 0, 1))
        assert z.prefix(8) == (1, 0, 0, 0, 1, 0, 0, 1)

    def test_empty_cycle_rejected(self):
        with pytest.raises(RateError):
            EventuallyPeriodic(head=(), cycle=())

    # a symbol stream, a shift target (a schedule of streams) and a torus target
    ELEMENTS = {
        "symbols": st.integers(0, 3),
        "streams": st.builds(
            EventuallyPeriodic,
            st.lists(st.integers(0, 2), max_size=2).map(tuple),
            st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
        ),
        "points": st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)),
    }

    @pytest.mark.parametrize("kind", ELEMENTS)
    @given(data=st.data())
    def test_at_reads_the_prefix(self, kind, data):
        elements = self.ELEMENTS[kind]
        head = tuple(data.draw(st.lists(elements, max_size=3)))
        cycle = tuple(data.draw(st.lists(elements, min_size=1, max_size=4)))
        z = EventuallyPeriodic(head, cycle)
        n = data.draw(st.integers(0, 20))
        prefix = z.prefix(n)
        assert len(prefix) == n
        assert all(z.at(i) == prefix[i] for i in range(n))
        # the head, then the cycle again and again
        assert [z.at(i) for i in range(len(head) + len(cycle))] == [*head, *cycle]
        assert all(z.at(i + len(cycle)) == z.at(i) for i in range(len(head), n))
