import math
import sys
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shrinktarget import oracle
from shrinktarget.cli import run
from shrinktarget.config import parse_config
from shrinktarget.oracle import (
    LimsupCylinderScheme,
    OracleError,
    PlanError,
    WitnessBlock,
    WitnessCertificate,
    _fill_stretch,
    _reach_sets,
    _stream_agreement,
    construct_witness,
    critical_exponent,
    floor_guarded,
    grid_cell,
    moran_dimension,
    moran_layout,
    plan_witness,
    required_exponent,
    verify_witness,
)
from shrinktarget.rates import (
    EventuallyPeriodic,
    Exponential,
    TimeSet,
    tau_exponents,
)
from shrinktarget.symbolic import (
    NotMixingError,
    ShiftOfFiniteType,
    mixing_gap,
)
from shift_strategies import entropy, full_shift, golden_mean_shift, irreducible_shifts, moran_estimate

LN2 = math.log(2.0)
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)
ZEROS = EventuallyPeriodic(head=(), cycle=(0,))
ZERO_TARGET = EventuallyPeriodic((), (ZEROS,))  # the witness functions take a schedule


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
HEADED = EventuallyPeriodic(head=(2,), cycle=(0, 1))


def admissible_sequence(data, shift):
    """Random admissible eventually periodic stream: a walk until it closes."""
    walk = [data.draw(st.integers(0, shift.alphabet_size - 1))]
    while True:
        succ = [b for b in range(shift.alphabet_size) if shift.transition[walk[-1]][b]]
        nxt = data.draw(st.sampled_from(succ))
        if nxt in walk:
            i = walk.index(nxt)
            return EventuallyPeriodic(head=tuple(walk[:i]), cycle=tuple(walk[i:]))
        walk.append(nxt)


class OnlySymbol:
    """Stands in for ``st.data()`` on a one-symbol shift, where every draw is symbol 0."""

    def draw(self, strategy):
        return 0


def naive_verify(prefix, phi, z, s):
    """The symbol-by-symbol hit check of every time in S, on a raw prefix."""
    verified = []
    for n in filter(s.contains, range(len(prefix))):
        r = required_exponent(phi, n)
        if n + r - 1 > len(prefix):
            continue
        tgt = z.at(n)
        if all(prefix[n + i] == tgt.at(i) for i in range(r - 1)):
            verified.append(n)
    return verified


def naive_first_disagreement(prefix, start, z):
    """First j >= 1 with prefix[start + j - 1] != z_j, else the window end + 1."""
    limit = len(prefix) - start
    for j in range(1, limit + 1):
        if prefix[start + j - 1] != z.at(j - 1):
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
    """A certificate claiming a hit at every time 0..L-1."""
    return WitnessCertificate(tuple(prefix), tuple(range(len(prefix))))


def witness_report_row(shift, tau, eta, s, stages, z):
    """The ``witness`` command's report row for one rate on ``shift``."""
    assert s.times == ()  # an arithmetic time set has no explicit head

    def sequence(q):
        return {"head": list(q.head), "cycle": list(q.cycle)}

    payload = {
        "system": {"kind": "sft", "transition": [list(r) for r in shift.transition], "sided": "one"},
        "rates": [
            {
                "phi": {"kind": "exponential", "tau": tau},
                "time_set": {"kind": "arithmetic", "offset": s.offset, "step": s.step},
                "target": {
                    "kind": "symbol_schedule",
                    "preperiod": [sequence(q) for q in z.head],
                    "cycle": [sequence(q) for q in z.cycle],
                },
            }
        ],
        "tasks": ["witness"],
        "oracle_params": {"stages": stages, "eta": eta},
    }
    report, ok, _ = run(parse_config(payload), "witness")
    assert ok, report["results"][0]
    (row,) = report["results"][0]["rows"]
    return row


def reference_fill(shift, length, prev, into):
    """The lexicographically least admissible word of ``length`` symbols after
    ``prev`` (None: no symbol before) whose last symbol precedes ``into``,
    chosen one symbol at a time: the least successor of the symbol before
    from which the symbols still to come can reach a predecessor of ``into``."""
    k, m = shift.alphabet_size, shift.transition
    reach = [{a for a in range(k) if m[a][into]}]  # reach[j]: j more symbols can follow
    while len(reach) < length and len(reach[-1]) < k:
        reach.append({a for a in range(k) if any(m[a][b] for b in reach[-1])})
    out, cur = [], prev
    for i in range(length):
        feasible = reach[min(length - 1 - i, len(reach) - 1)]
        cur = next(c for c in range(k) if (cur is None or m[cur][c]) and c in feasible)
        out.append(cur)
    return out


def reference_prefix(blocks, shift, z):
    """The witness prefix glued symbol by symbol from ``reference_fill`` and
    the pinned target prefixes."""
    symbols, prev = [], None
    for b in blocks:
        tgt = z.at(b.hit_time)
        symbols += reference_fill(shift, b.hit_time - len(symbols), prev, tgt.at(0))
        symbols += tgt.prefix(b.pinned_len)
        prev = symbols[-1]
    return symbols


# least successors 0 -> 1 -> 2 -> 1: the filler's walk from 0 has the
# transient (0) before its cycle (1 2); 1 -> 3 -> 0 makes the shift mixing
TRANSIENT = ShiftOfFiniteType(((0, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0)))


def time_sets():
    return st.one_of(
        st.just(TimeSet()),
        st.builds(TimeSet, st.integers(0, 6), st.integers(1, 4)),
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
        assert all(scheme.count(n) == 2**n for n in range(1, 21))
        assert critical_exponent(scheme, 20) == pytest.approx(LN2 / 2.0, rel=1e-14)

    def test_supcritical_terms_decay(self):
        scheme = LimsupCylinderScheme(full_shift(2), 1.0, ZEROS)
        t10, t20 = (scheme.count(n) * math.exp(-0.4 * (n + scheme.match_len(n))) for n in (10, 20))
        assert t20 < t10 < 1.0

    def test_zero_exponent_counts(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.0, ZEROS)
        # pure counting: W(1), W(2), W(3) = 2, 3, 5
        assert [scheme.count(n) for n in (1, 2, 3)] == [2, 3, 5]

    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts_match_brute_force(self, tau, n):
        for shift, z in (
            (full_shift(2), ZEROS),
            (golden_mean_shift(), ZEROS),
            (TRIANGLE, HEADED),
            (TRIANGLE, EventuallyPeriodic(head=(), cycle=(1, 0, 2))),
        ):
            scheme = LimsupCylinderScheme(shift, tau, z)
            levels = range(1, n + 1)
            assert [scheme.count(m) for m in levels] == [brute_count(shift, z, tau, m) for m in levels]

    @settings(max_examples=60, deadline=None)
    @given(irreducible_shifts(), st.floats(0.0, 2.0), st.data())
    def test_counts_match_junction_enumeration(self, shift, tau, data):
        z = admissible_sequence(data, shift)
        scheme = LimsupCylinderScheme(shift, tau, z)
        k = shift.alphabet_size
        n_max = 8 if k == 1 else min(8, int(math.log(5_000) / math.log(k)))
        counts = [scheme.count(n) for n in range(1, n_max + 1)]
        assert counts == [brute_count(shift, z, tau, n) for n in range(1, n_max + 1)]

    def test_level_index_must_be_positive(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
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
            plan_witness(two, Exponential((0.5,)), ZERO_TARGET, TimeSet(), 3, 0.05, mixing_gap(two))
        with pytest.raises(OracleError, match="one-sided"):
            moran_dimension(two, [moran_layout(0.5, 4, mixing_gap(two))])

    def test_inadmissible_target_rejected(self):
        with pytest.raises(OracleError, match="admissible"):
            LimsupCylinderScheme(golden_mean_shift(), 0.5, EventuallyPeriodic((), (1,)))


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
        h = entropy(shift)
        lo, hi = grid_cell(critical_exponent(LimsupCylinderScheme(shift, tau, ZEROS), 40), cli_grid(h))
        assert lo <= h / (1.0 + tau) < hi
        assert hi - lo == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "shift,tau,target,depth",
        [
            # the per-grid slope test put these brackets below h/(1+tau):
            # [2.28, 2.29], [0.83, 0.84] and [0.46, 0.47]
            (SFT60, 0.67803, EventuallyPeriodic((), (0, 1)), 40),
            (full_shift(3), 0.306301, ZEROS, 100),
            (golden_mean_shift(), 0.02, ZEROS, 60),
        ],
        ids=["sft60", "full3", "golden_mean"],
    )
    def test_rows_the_slope_test_missed(self, shift, tau, target, depth):
        h = entropy(shift)
        lo, hi = grid_cell(critical_exponent(LimsupCylinderScheme(shift, tau, target), depth), cli_grid(h))
        assert lo <= h / (1.0 + tau) < hi

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.3])
    def test_full_shift_up_to_rounding(self, k, tau):
        scheme = LimsupCylinderScheme(full_shift(k), tau, ZEROS)
        assert critical_exponent(scheme, 40) == pytest.approx(math.log(k) / (1.0 + tau), rel=1e-14)

    def test_shared_word_counts_give_the_same_value(self):
        # rates at the same first target symbol share one recurrence; tau =
        # 1/17 pins the first symbol inside the window [15, 30], at n = 17
        every, ending = LimsupCylinderScheme(TRIANGLE, 0.1, HEADED).log_window(30)
        assert len(every) == len(ending) == 16
        for tau in (0.0, 0.1, 1.0 / 17, 0.7):
            scheme = LimsupCylinderScheme(TRIANGLE, tau, HEADED)
            assert critical_exponent(scheme, 30, (every, ending)) == critical_exponent(scheme, 30)
            # the window holds ln of both numbers count chooses between
            logs = [(ending if scheme.match_len(n) > 0 else every)[n - 15] for n in range(15, 31)]
            assert logs == [math.log(scheme.count(n)) for n in range(15, 31)]

    def test_fit_memory_stays_flat_in_depth(self):
        # the fit keeps the current count vector and the window's logs, about
        # 0.16 MB here; every level's big integer would take 2.8 MB
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
        tracemalloc.start()
        try:
            critical_exponent(scheme, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_short_word_counts_rejected(self):
        scheme = LimsupCylinderScheme(golden_mean_shift(), 0.5, ZEROS)
        with pytest.raises(OracleError, match="cover 6 levels, need 11"):
            critical_exponent(scheme, 20, scheme.log_window(10))


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
        est = moran_estimate(full_shift(2), 0.5, 12)
        assert abs(est - LN2 / 1.5) < 0.05

    def test_full_shift_no_pinning(self):
        est = moran_estimate(full_shift(2), 0.0, 12)
        assert abs(est - LN2) < 0.02

    def test_golden_mean_tau_half(self):
        est = moran_estimate(golden_mean_shift(), 0.5, 12)
        assert abs(est - GOLDEN_ENTROPY / 1.5) < 0.05

    def test_stays_below_bracket_upper_edge(self):
        for shift, tau in ((full_shift(2), 0.5), (golden_mean_shift(), 0.5)):
            scheme = LimsupCylinderScheme(shift, tau, ZEROS)
            _, hi = grid_cell(critical_exponent(scheme, 40), grid(0.05, 0.6))
            assert moran_estimate(shift, tau, 12) <= hi + 0.02

    def test_non_mixing_rejected(self):
        # the gap the estimate takes does not exist for a periodic shift
        flip = ShiftOfFiniteType(((0, 1), (1, 0)))
        with pytest.raises(NotMixingError):
            moran_estimate(flip, 0.5, 8)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.3])
    def test_plateau_below_exact_value(self, tau):
        # with the fixed eta = 0.02 the estimate settles on
        # h (1 - 1.5 eta) / (1 + tau - 1.5 eta), not on h / (1 + tau)
        for shift in (full_shift(3), golden_mean_shift()):
            h = entropy(shift)
            plateau = h * 0.97 / (1.0 + tau - 0.03)
            assert moran_estimate(shift, tau, 12) == pytest.approx(plateau, rel=1e-12)
            assert moran_estimate(shift, tau, 40) == pytest.approx(plateau, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        irreducible_shifts(mixing=True),
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=16),
        st.integers(1, 14),
    )
    def test_one_walk_per_call_equals_one_walk_per_tau(self, shift, taus, stages):
        # every rate's estimate from the shared walk is bit for bit its walk alone
        layouts = [moran_layout(tau, stages, mixing_gap(shift)) for tau in taus]
        assert moran_dimension(shift, layouts) == [moran_dimension(shift, [lay])[0] for lay in layouts]

    def test_layout_stages(self):
        # s_k = ceil(carried / 0.03), carried = the length so far plus two
        # connectors of the gap; s = 67, 3400, 170067 here
        lay = moran_layout(0.5, 3, 1)
        assert lay.free_lengths == (67 - 2, 3400 - 102, 170067 - 5102)
        assert lay.total_len == 170067 + 170067 // 2
        assert moran_dimension(golden_mean_shift(), []) == []

    def test_layout_rejects_bad_input(self):
        with pytest.raises(OracleError, match="tau"):
            moran_layout(math.inf, 4, 1)
        with pytest.raises(OracleError, match="stages must be >= 1"):
            moran_layout(0.5, 0, 1)
        with pytest.raises(OracleError, match="stages = 182: the stage lengths leave the float range"):
            moran_layout(0.5, 182, 1)


class TestWitness:
    def test_full_shift_plan_shape(self):
        phi = Exponential((0.3,))
        blocks = plan_witness(full_shift(2), phi, ZERO_TARGET, TimeSet(), 5, 0.05, mixing_gap(full_shift(2)))
        hits = [b.hit_time for b in blocks]
        assert len(hits) == 5
        assert all(b > a for a, b in zip(hits, hits[1:]))
        for b in blocks:
            assert b.pinned_len == math.floor(0.35 * b.hit_time) + 1
            assert b.pinned_len >= math.floor(0.3 * b.hit_time) + 1

    def test_full_shift_construct_and_verify(self):
        phi = Exponential((0.3,))
        blocks = plan_witness(full_shift(2), phi, ZERO_TARGET, TimeSet(), 5, 0.05, mixing_gap(full_shift(2)))
        cert = construct_witness(blocks, full_shift(2), ZERO_TARGET)
        achieved, confirmed = verify_witness(cert, full_shift(2), phi, ZERO_TARGET, TimeSet())
        for block, a in zip(blocks, achieved, strict=True):
            assert a >= block.required_exponent
        planned = [b.hit_time for b in blocks]
        assert confirmed == planned
        _, every = verify_witness(claim_every_time(cert.prefix), full_shift(2), phi, ZERO_TARGET, TimeSet())
        assert every == naive_verify(cert.prefix, phi, ZERO_TARGET, TimeSet())
        assert set(planned) <= set(every)

    def test_golden_mean_avoids_forbidden_word(self):
        phi = Exponential((0.3,))
        g = golden_mean_shift()
        blocks = plan_witness(g, phi, ZERO_TARGET, TimeSet(), 5, 0.05, mixing_gap(g))
        cert = construct_witness(blocks, g, ZERO_TARGET)
        achieved, _ = verify_witness(cert, g, phi, ZERO_TARGET, TimeSet())
        assert all(a >= b.required_exponent for b, a in zip(blocks, achieved, strict=True))
        assert g.word_admissible(cert.prefix)
        assert all(
            not (a == 1 and b == 1) for a, b in zip(cert.prefix, cert.prefix[1:])
        )

    def test_periodic_target_pinned_blocks_visible(self):
        # target 001001... differs from the all-zero filler, so the achieved
        # exponents are bounded by the pinned length rather than running to
        # the end of the prefix
        z = EventuallyPeriodic((), (EventuallyPeriodic(head=(), cycle=(0, 0, 1)),))
        phi = Exponential((0.3,))
        g = golden_mean_shift()
        blocks = plan_witness(g, phi, z, TimeSet(), 4, 0.05, mixing_gap(g))
        cert = construct_witness(blocks, g, z)
        achieved, confirmed = verify_witness(cert, g, phi, z, TimeSet())
        assert g.word_admissible(cert.prefix)
        for block, a in zip(blocks, achieved, strict=True):
            assert block.required_exponent <= a
            # the copied prefix guarantees at least pinned_len agreement
            assert a >= block.pinned_len + 1
        planned = [b.hit_time for b in blocks]
        assert confirmed == planned
        _, every = verify_witness(claim_every_time(cert.prefix), g, phi, z, TimeSet())
        assert every == naive_verify(cert.prefix, phi, z, TimeSet())
        assert set(planned) <= set(every)

    def test_inadmissible_prefix_confirms_nothing(self):
        # 11 is the golden mean's forbidden word: a prefix that opens with it
        # is no point of the shift, however well it matches the targets
        z = EventuallyPeriodic((), (EventuallyPeriodic(head=(), cycle=(0, 0, 1)),))
        phi = Exponential((0.3,))
        g = golden_mean_shift()
        blocks = plan_witness(g, phi, z, TimeSet(), 4, 0.05, 2)
        cert = construct_witness(blocks, g, z)
        planned = [b.hit_time for b in blocks]
        assert planned == [21, 34, 51, 74]
        achieved, confirmed = verify_witness(cert, g, phi, z, TimeSet())
        assert confirmed == planned
        prefix = cert.prefix.copy()  # the certificate's own array is read-only
        prefix[:2] = 1
        tampered = replace(cert, prefix=prefix)
        # every hit is still measured, and none is confirmed
        assert verify_witness(tampered, g, phi, z, TimeSet()) == (achieved, [])
        assert verify_witness(tampered, full_shift(2), phi, z, TimeSet()) == (achieved, planned)

    def test_empty_plan(self):
        blocks = plan_witness(full_shift(2), Exponential((0.3,)), ZERO_TARGET, TimeSet(), 0, 0.05, mixing_gap(full_shift(2)))
        assert blocks == ()
        cert = construct_witness(blocks, full_shift(2), ZERO_TARGET)
        assert len(cert.prefix) == 0 and cert.times == ()
        assert verify_witness(cert, full_shift(2), Exponential((0.3,)), ZERO_TARGET, TimeSet()) == ([], [])

    def test_prefix_is_read_only(self):
        g = golden_mean_shift()
        blocks = plan_witness(g, Exponential((0.3,)), ZERO_TARGET, TimeSet(), 3, 0.05, mixing_gap(g))
        cert = construct_witness(blocks, g, ZERO_TARGET)
        assert cert.prefix.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            cert.prefix[0] = 1
        # a writable array given by hand is copied, not frozen in place
        mine = cert.prefix.copy()
        copied = replace(cert, prefix=mine)
        mine[0] = 1
        assert copied.prefix[0] == 0 and not copied.prefix.flags.writeable

    def test_certificates_compare_by_symbols(self):
        g = golden_mean_shift()
        blocks = plan_witness(g, Exponential((0.3,)), ZERO_TARGET, TimeSet(), 3, 0.05, mixing_gap(g))
        cert = construct_witness(blocks, g, ZERO_TARGET)
        assert cert == construct_witness(blocks, g, ZERO_TARGET)
        assert cert == replace(cert, prefix=tuple(cert.prefix.tolist()))
        tampered = cert.prefix.copy()
        tampered[-1] = 1
        assert cert != replace(cert, prefix=tampered)
        assert cert != replace(cert, prefix=cert.prefix[:-1])
        first, *rest = cert.times
        assert cert != replace(cert, times=(first + 1, *rest))
        assert cert != replace(cert, times=cert.times[1:])
        assert WitnessCertificate((), ()) == WitnessCertificate(np.zeros(0, dtype=np.int64), ())
        assert cert != "not a certificate"

    def test_explicit_powers_of_two(self):
        powers = TimeSet(2**12, 2**12, tuple(2**i for i in range(3, 12)))
        blocks = plan_witness(full_shift(2), Exponential((0.3,)), ZERO_TARGET, powers, 3, 0.05, mixing_gap(full_shift(2)))
        for b in blocks:
            assert powers.contains(b.hit_time)

    def test_reach_sets_once_per_target_symbol(self, monkeypatch):
        calls = []

        def counted(shift, into, needed):
            calls.append(into)
            return _reach_sets(shift, into, needed)

        monkeypatch.setattr(oracle, "_reach_sets", counted)
        g = golden_mean_shift()
        blocks = plan_witness(g, Exponential((0.5,)), ZERO_TARGET, TimeSet(), 14, 0.05, mixing_gap(g))
        construct_witness(blocks, g, ZERO_TARGET)
        assert calls == [0]
        calls.clear()
        schedule = EventuallyPeriodic((), (ZEROS, EventuallyPeriodic((), (1, 0)), ZEROS))
        blocks = plan_witness(full_shift(2), Exponential((0.3,)), schedule, TimeSet(), 9, 0.05, 1)
        construct_witness(blocks, full_shift(2), schedule)
        assert sorted(calls) == [0, 1]

    def test_deterministic(self):
        phi = Exponential((0.3,))
        g = golden_mean_shift()
        blocks = plan_witness(g, phi, ZERO_TARGET, TimeSet(), 4, 0.05, mixing_gap(g))
        c1 = construct_witness(blocks, g, ZERO_TARGET)
        c2 = construct_witness(blocks, g, ZERO_TARGET)
        assert np.array_equal(c1.prefix, c2.prefix)

    def test_vacuous_rate(self):
        # phi == 1: every time verifies (distance <= e^-1 < 1)
        phi = Exponential((0.0,))
        prefix = tuple([0, 1] * 20)
        _, confirmed = verify_witness(claim_every_time(prefix), full_shift(2), phi, ZERO_TARGET, TimeSet())
        assert confirmed == list(range(len(prefix)))

    def test_alternating_point_misses_fast_rate(self):
        phi = Exponential((2.0,))
        prefix = tuple([0, 1] * 30)
        _, confirmed = verify_witness(claim_every_time(prefix), full_shift(2), phi, ZERO_TARGET, TimeSet())
        assert confirmed == naive_verify(prefix, phi, ZERO_TARGET, TimeSet())
        assert all(n < 1 for n in confirmed)  # only the vacuous-free n=0 can hit

    def test_all_zero_point_hits_everywhere(self):
        phi = Exponential((1.0,))
        prefix = tuple([0] * 40)
        _, confirmed = verify_witness(claim_every_time(prefix), full_shift(2), phi, ZERO_TARGET, TimeSet())
        assert confirmed == naive_verify(prefix, phi, ZERO_TARGET, TimeSet())
        # certified hits limited only by the finite observation window
        for n in confirmed:
            assert n + required_exponent(phi, n) - 1 <= len(prefix)
        assert confirmed and confirmed[0] == 0

    def test_verify_proves_claims_not_records(self):
        # a hit at n needs floor(tau n) symbols of agreement with 000...;
        # the 1 at position 3 breaks only the windows that reach it
        prefix = (0, 0, 0, 1) + (0,) * 8
        claims = (
            4,
            3,  # every window at 3 holds the 1
            5,
            2,  # the requirement is recomputed from phi
            0,
            11,  # the window at 11 runs past the prefix
            12,  # outside the prefix
            -1,
        )
        cert = WitnessCertificate(prefix, claims)
        half = Exponential((0.5,))
        # the first disagreement with 000..., or one past the prefix; 0 outside it
        achieved = [9, 1, 8, 2, 4, 2, 0, 0]
        assert verify_witness(cert, full_shift(2), half, ZERO_TARGET, TimeSet()) == (achieved, [4, 5, 2, 0])
        assert verify_witness(cert, full_shift(2), half, ZERO_TARGET, TimeSet(0, 2)) == (achieved, [4, 2, 0])
        assert verify_witness(cert, full_shift(2), half, ZERO_TARGET, TimeSet(100, 1, (5,))) == (achieved, [5])
        # at tau = 1 the window at 2 is 2..3, which holds the 1
        assert verify_witness(cert, full_shift(2), Exponential((1.0,)), ZERO_TARGET, TimeSet()) == (achieved, [4, 5, 0])

    def test_time_whose_rate_underflows_is_skipped(self):
        # -ln phi(25) = 25e308 overflows: no agreement certifies time 25, so
        # the plan moves on to 26 and verification never confirms 25
        phi = Exponential((0.1, 1e308))
        s = TimeSet(26, 2, (25,))
        assert required_exponent(phi, 25) == math.inf
        blocks = plan_witness(golden_mean_shift(), phi, ZERO_TARGET, s, 2, 0.05, mixing_gap(golden_mean_shift()))
        assert [b.hit_time for b in blocks] == [26, 36]
        cert = WitnessCertificate((0,) * 200, (25, 26))
        assert verify_witness(cert, golden_mean_shift(), phi, ZERO_TARGET, s) == ([176, 175], [26])

    def test_overlapping_blocks_refused(self):
        # no filler fits where a block starts before the previous one ends
        g = golden_mean_shift()
        first, second = plan_witness(g, Exponential((0.3,)), ZERO_TARGET, TimeSet(), 2, 0.05, mixing_gap(g))
        early = replace(second, hit_time=first.end - 1)
        with pytest.raises(PlanError, match=f"block at time {first.end - 1} starts before the previous one ends at {first.end}"):
            construct_witness((first, early), g, ZERO_TARGET)
        with pytest.raises(PlanError, match="starts before"):
            construct_witness((first, WitnessBlock(first.hit_time, 3, 1)), g, ZERO_TARGET)
        # nor before time 0, where z_n is not defined, nor one that pins no symbol
        with pytest.raises(PlanError, match="block at time -1 starts before time 0"):
            construct_witness((WitnessBlock(-1, 3, 1),), g, ZERO_TARGET)
        with pytest.raises(PlanError, match=f"block at time {second.hit_time} pins 0 symbols"):
            construct_witness((first, replace(second, pinned_len=0)), g, ZERO_TARGET)
        # a block that breaks only the window rule is built, and its hit fails
        short = replace(second, pinned_len=1)
        cert = construct_witness((first, short), g, ZERO_TARGET)
        achieved, confirmed = verify_witness(cert, g, Exponential((0.3,)), ZERO_TARGET, TimeSet())
        assert achieved[0] >= first.required_exponent and achieved[1] < short.required_exponent
        assert confirmed == [first.hit_time]

    def test_one_agreement_pass_per_rate(self, monkeypatch):
        # construction measures nothing: a witness call measures each rate's
        # hits once, in verify_witness
        callers = []
        measure = oracle._agreement_lengths

        def counted(prefix, target, times):
            callers.append(sys._getframe(1).f_code.co_name)
            return measure(prefix, target, times)

        monkeypatch.setattr(oracle, "_agreement_lengths", counted)
        rate = {"phi": {"kind": "exponential", "tau": 0.5}, "time_set": {"kind": "all"}, "target": {"kind": "symbols", "cycle": [0]}}
        payload = {
            "system": {"kind": "sft", "transition": [[1, 1], [1, 0]]},
            "rates": [rate, {**rate, "target": {"kind": "symbols", "cycle": [0, 1]}}],
            "tasks": ["witness"],
            "oracle_params": {"stages": 6},
        }
        report, ok, _ = run(parse_config(payload), "witness")
        assert ok and [row["all_verified"] for row in report["results"][0]["rows"]] == [True, True]
        assert callers == ["verify_witness", "verify_witness"]

    def test_eta_must_be_positive(self):
        with pytest.raises(PlanError):
            plan_witness(full_shift(2), Exponential((0.3,)), ZERO_TARGET, TimeSet(), 2, 0.0, mixing_gap(full_shift(2)))


def _symbol_streams(k):
    return st.builds(
        EventuallyPeriodic,
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
            z = EventuallyPeriodic(
                tuple(data.draw(st.lists(streams, max_size=2))),
                tuple(data.draw(st.lists(streams, min_size=1, max_size=3))),
            )
            pool = list(z.head + z.cycle)
        else:
            z = EventuallyPeriodic((), (data.draw(streams),))
            pool = list(z.cycle)
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
        phi = Exponential((tau,))
        achieved, confirmed = verify_witness(claim_every_time(prefix), full_shift(k), phi, z, s)
        assert achieved == [naive_first_disagreement(prefix, n, z.at(n)) for n in range(len(prefix))]
        assert confirmed == naive_verify(prefix, phi, z, s)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_agreement_kernel_matches_oracles(self, k, data):
        z = data.draw(
            st.builds(
                EventuallyPeriodic,
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
        z = EventuallyPeriodic(head=(1, 2), cycle=(0, 1))
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
    # 1/eta rounds to just below 20, and at s = 20 the float ratio pinned / s equals beta
    @example(
        shift=ShiftOfFiniteType(((1,),)), tau=1.0, eta=0.05000000000000001, s=TimeSet(),
        stages=1, schedule=False, data=OnlySymbol(),
    )
    def test_construct_hits_match_naive(self, shift, tau, eta, s, stages, schedule, data):
        if schedule:
            cycle = tuple(admissible_sequence(data, shift) for _ in range(data.draw(st.integers(1, 3))))
            z = EventuallyPeriodic((admissible_sequence(data, shift),), cycle)
        else:
            z = EventuallyPeriodic((), (admissible_sequence(data, shift),))
        phi = Exponential((tau,))
        gap = mixing_gap(shift)
        blocks = plan_witness(shift, phi, z, s, stages, eta, gap)
        cert = construct_witness(blocks, shift, z)
        # the plan's rules, tested once in its search, hold on every block
        tau_bar = tau_exponents(phi, s).tau_upper
        alpha, beta = tau_bar + eta, tau_bar + 2 * eta
        prev_end = 0
        for b in blocks:
            assert s.contains(b.hit_time)
            assert b.hit_time >= prev_end + 2 * gap + 1
            assert alpha < b.pinned_len / b.hit_time < beta
            assert b.required_exponent == required_exponent(phi, b.hit_time)
            assert b.pinned_len >= b.required_exponent - 1
            prev_end = b.end
        row = witness_report_row(shift, tau, eta, s, stages, z)
        assert row["planned_hits"] == list(cert.times)
        assert shift.word_admissible(cert.prefix)
        assert cert.times == tuple(b.hit_time for b in blocks)
        achieved, confirmed = verify_witness(cert, shift, phi, z, s)
        assert achieved == [naive_first_disagreement(cert.prefix, n, z.at(n)) for n in cert.times]
        assert row["hits"] == [[b.hit_time, a, b.required_exponent] for b, a in zip(blocks, achieved)]
        assert row["all_verified"] == all(a >= b.required_exponent for b, a in zip(blocks, achieved))
        every = naive_verify(cert.prefix, phi, z, s)
        assert verify_witness(claim_every_time(cert.prefix), shift, phi, z, s)[1] == every
        planned = [b.hit_time for b in blocks]
        assert confirmed == [n for n in every if n in planned]

    @settings(max_examples=60, deadline=None)
    @given(irreducible_shifts(max_k=5, mixing=True), st.floats(0.0, 1.2), st.integers(1, 8), st.data())
    def test_shared_reach_sets_fill_like_per_block(self, shift, tau, stages, data):
        # one reach list per target symbol fills every stretch as a list
        # built for that stretch alone does
        cycle = tuple(admissible_sequence(data, shift) for _ in range(data.draw(st.integers(1, 3))))
        z = EventuallyPeriodic((), cycle)
        blocks = plan_witness(shift, Exponential((tau,)), z, TimeSet(), stages, 0.1, mixing_gap(shift))
        symbols, prev = [], None
        for b in blocks:
            tgt = z.at(b.hit_time)
            stretch = b.hit_time - len(symbols)
            symbols += _fill_stretch(shift, stretch, prev, _reach_sets(shift, tgt.at(0), stretch)).tolist()
            symbols += tgt.prefix(b.pinned_len)
            prev = symbols[-1]
        assert np.array_equal(construct_witness(blocks, shift, z).prefix, symbols)

    @settings(max_examples=100, deadline=None)
    @given(irreducible_shifts(max_k=5, mixing=True), st.floats(0.0, 1.2), st.integers(1, 8), st.integers(1, 3), st.data())
    def test_tiled_prefix_matches_the_greedy_reference(self, shift, tau, stages, targets, data):
        # the first block follows no symbol; the later ones follow a pinned block
        cycle = tuple(admissible_sequence(data, shift) for _ in range(targets))
        z = EventuallyPeriodic((), cycle)
        blocks = plan_witness(shift, Exponential((tau,)), z, TimeSet(), stages, 0.1, mixing_gap(shift))
        assert construct_witness(blocks, shift, z).prefix.tolist() == reference_prefix(blocks, shift, z)

    @settings(max_examples=200, deadline=None)
    @given(irreducible_shifts(max_k=5, mixing=True), st.data())
    def test_tiled_fill_matches_the_greedy_reference(self, shift, data):
        k = shift.alphabet_size
        prev = data.draw(st.one_of(st.none(), st.integers(0, k - 1)))
        into = data.draw(st.integers(0, k - 1))
        length = data.draw(st.integers(mixing_gap(shift), 40))  # long enough to join prev to into
        reach = _reach_sets(shift, into, length)
        assert _fill_stretch(shift, length, prev, reach).tolist() == reference_fill(shift, length, prev, into)

    @pytest.mark.parametrize("into", range(4))
    @pytest.mark.parametrize("prev", [None, 0, 1, 2, 3])
    def test_fill_walk_with_a_transient(self, prev, into):
        gap = mixing_gap(TRANSIENT)
        reach = _reach_sets(TRANSIENT, into, 40)
        for length in range(gap, 41):
            assert _fill_stretch(TRANSIENT, length, prev, reach).tolist() == reference_fill(TRANSIENT, length, prev, into)
        assert reference_fill(TRANSIENT, 40, None, 1)[:5] == [0, 1, 2, 1, 2]

    @pytest.mark.parametrize("cycle", [(1, 2), (0, 1, 3)])
    def test_prefix_with_a_transient(self, cycle):
        z = EventuallyPeriodic((), (EventuallyPeriodic((), cycle),))
        blocks = plan_witness(TRANSIENT, Exponential((0.5,)), z, TimeSet(), 6, 0.05, mixing_gap(TRANSIENT))
        cert = construct_witness(blocks, TRANSIENT, z)
        assert cert.prefix[:5].tolist() == [0, 1, 2, 1, 2]
        assert cert.prefix.tolist() == reference_prefix(blocks, TRANSIENT, z)
        assert verify_witness(cert, TRANSIENT, Exponential((0.5,)), z, TimeSet())[1] == [b.hit_time for b in blocks]
