"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math
import random
import time
from contextlib import contextmanager

from shrinktarget.bounds import (
    CaseTag,
    bounds_expanding,
    bounds_general_profile,
    bounds_hyperbolic_set,
)
from shrinktarget.cli import run
from shrinktarget.config import parse_config
from shrinktarget.oracle import (
    LimsupCylinderScheme,
    construct_witness,
    critical_exponent,
    grid_cell,
    plan_witness,
    verify_witness,
)
from shrinktarget.rates import EventuallyPeriodic, Exponential, RateExponents, TimeSet
from shrinktarget.symbolic import mixing_gap
from shrinktarget.systems import (
    HyperbolicityProfile,
    IntegerMatrixSystem,
    analyze_matrix,
    crude_profile_from_matrix,
    sharp_profile_from_matrix,
)
from shift_strategies import count_words, entropy, full_shift, golden_mean_shift, moran_estimate

LN2 = math.log(2.0)
CAT = IntegerMatrixSystem(((2, 1), (1, 1)))
CAT_LOG_UNSTABLE = math.log((3.0 + math.sqrt(5.0)) / 2.0)
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)
ZEROS = EventuallyPeriodic(head=(), cycle=(0,))


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def exact_report_via_cli(entries, tau):
    config = parse_config(
        {
            "system": {"kind": "matrix", "entries": entries},
            "rates": [
                {
                    "phi": {"kind": "exponential", "tau": tau},
                    "time_set": {"kind": "all"},
                    "target": {"kind": "point", "point": [0.0] * len(entries)},
                }
            ],
            "tasks": ["exact"],
        }
    )
    report, ok, _ = run(config, "exact")
    assert ok
    (res,) = report["results"]
    (row,) = res["rows"]
    return row


def test_criterion_1_exact_toral_values():
    with criterion(1, "cat map exact values at tau=0 and tau=ln(lambda_u)/2, < 1 s"):
        started = time.perf_counter()
        row = exact_report_via_cli([[2, 1], [1, 1]], 0.0)
        assert abs(float(row["h_lower"]) - CAT_LOG_UNSTABLE) < 1e-9
        assert abs(float(row["dim_lower"]) - 2.0) < 1e-9

        row = exact_report_via_cli([[2, 1], [1, 1]], CAT_LOG_UNSTABLE / 2.0)
        assert abs(float(row["h_lower"]) - CAT_LOG_UNSTABLE / 3.0) < 1e-9
        assert abs(float(row["dim_lower"]) - 4.0 / 3.0) < 1e-9

        # independent cross-check of the sharp-profile path against the
        # closed form d_s (a b - t b)/(b + t), d_s (a + b)/(b + t)
        p = analyze_matrix(CAT)
        sharp = sharp_profile_from_matrix(CAT, p)
        a, b = -math.log(p.lambda_s_mod), math.log(p.lambda_u_mod)
        for t in (0.0, CAT_LOG_UNSTABLE / 2.0):
            tau = RateExponents(t, t)
            via_set = bounds_hyperbolic_set(sharp, tau)
            assert abs(via_set.entropy_lower - p.d_s * (a * b - t * b) / (b + t)) < 1e-9
            assert abs(via_set.dim_lower - p.d_s * (a + b) / (b + t)) < 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_2_exact_expanding_values():
    with criterion(2, "doubling map exact values at tau=ln2, tolerance 1e-12"):
        m = IntegerMatrixSystem(((2,),))
        rep = bounds_expanding(sharp_profile_from_matrix(m, analyze_matrix(m)), RateExponents(LN2, LN2))
        assert rep.case_tag is CaseTag.EXACT
        assert abs(rep.entropy_lower - LN2 / 2.0) < 1e-12
        assert abs(rep.dim_lower - 0.5) < 1e-12


def bracket_for(shift, tau, h):
    scheme = LimsupCylinderScheme(shift, tau, ZEROS)
    grid = [0.05 + k * 0.01 for k in range(int((h + 0.1 - 0.05) / 0.01) + 1)]
    return grid_cell(critical_exponent(scheme, 40), grid)


def test_criterion_3_oracle_brackets():
    with criterion(3, "covering-sum brackets hit the shift exact values, < 30 s each"):
        started = time.perf_counter()
        lo, hi = bracket_for(full_shift(2), 0.5, LN2)
        assert hi - lo <= 0.02
        assert lo < LN2 / 1.5 <= hi
        assert time.perf_counter() - started < 30.0

        started = time.perf_counter()
        lo, hi = bracket_for(golden_mean_shift(), 0.5, GOLDEN_ENTROPY)
        assert hi - lo <= 0.02
        assert lo < GOLDEN_ENTROPY / 1.5 <= hi
        assert time.perf_counter() - started < 30.0


def test_criterion_4_moran_estimate():
    with criterion(4, "Moran estimate within 0.05 of ln2/1.5, below bracket edge"):
        est = moran_estimate(full_shift(2), 0.5, 12)
        assert abs(est - LN2 / 1.5) < 0.05
        _, hi = bracket_for(full_shift(2), 0.5, LN2)
        assert est <= hi + 0.02


def test_criterion_5_witness_construction():
    with criterion(5, "golden-mean witness verified at 5 planned hits, < 5 s"):
        started = time.perf_counter()
        g = golden_mean_shift()
        phi = Exponential((0.3,))
        z = EventuallyPeriodic((), (ZEROS,))
        blocks = plan_witness(g, phi, z, TimeSet(), 5, 0.05, mixing_gap(g))
        cert = construct_witness(blocks, g, z)
        achieved, confirmed = verify_witness(cert, g, phi, z, TimeSet())
        assert all(a >= b.required_exponent for b, a in zip(blocks, achieved, strict=True))
        assert g.word_admissible(cert.prefix)
        planned = [b.hit_time for b in blocks]
        assert len(planned) == 5
        assert confirmed == planned
        assert time.perf_counter() - started < 5.0


def test_criterion_6_entropy_numerics():
    with criterion(6, "golden-mean entropy to 1e-9 and word-count growth to 0.01"):
        h = entropy(golden_mean_shift())
        assert abs(h - GOLDEN_ENTROPY) < 1e-9
        assert abs(math.log(count_words(golden_mean_shift(), 60)) / 60.0 - h) < 0.01


def _random_hyperbolic_matrices(count, seed=20240811):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        entries = tuple(
            tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2)
        )
        det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
        if abs(det) != 1:
            continue
        m = IntegerMatrixSystem(entries)
        p = analyze_matrix(m)
        if not p.is_hyperbolic or p.lambda_s_mod is None:
            continue
        found.append((m, p))
    return found


def test_criterion_7_property_suite():
    with criterion(7, "sandwich + monotonicity over 200 random hyperbolic matrices"):
        violations = 0
        for m, p in _random_hyperbolic_matrices(200):
            crude = crude_profile_from_matrix(m, p)
            sharp = sharp_profile_from_matrix(m, p)
            taus = [crude.ln_l1 * 1.2 * k / 9.0 for k in range(10)]
            crude_rows = []
            exact_rows = []
            for t in taus:
                tau = RateExponents(t, t)
                crude_rows.append(bounds_hyperbolic_set(crude, tau))
                exact_rows.append(bounds_hyperbolic_set(sharp, tau))
            for rep in crude_rows + exact_rows:
                for lo, hi in (
                    (rep.entropy_lower, rep.entropy_upper),
                    (rep.dim_lower, rep.dim_upper),
                ):
                    if lo is not None and hi is not None and lo > hi + 1e-12:
                        violations += 1
            for series in (
                [r.entropy_lower for r in crude_rows],
                [r.entropy_upper for r in crude_rows],
                [r.dim_upper for r in crude_rows],
                [r.entropy_lower for r in exact_rows],
                [r.dim_lower for r in exact_rows],
            ):
                present = [v for v in series if v is not None]
                if any(b > a + 1e-12 for a, b in zip(present, present[1:])):
                    violations += 1
            # exact value must sit inside the crude sandwich
            for rep_c, rep_e in zip(crude_rows, exact_rows):
                if rep_e.case_tag is CaseTag.EXACT and rep_c.entropy_lower is not None:
                    if not (
                        rep_c.entropy_lower - 1e-9
                        <= rep_e.entropy_lower
                        <= rep_c.entropy_upper + 1e-9
                    ):
                        violations += 1
        assert violations == 0


def test_criterion_8_case_dispatch():
    with criterion(8, "upper-bound case dispatch at and beyond tau = ln L1"):
        for l1, l2, lam1, lam2, h in (
            (1.0, 1.0, 1.0, 1.0, LN2),
            (0.7, 1.3, 0.5, 1.1, 0.9),
            (2.0, 3.0, 1.5, 2.5, 1.7),
        ):
            prof = HyperbolicityProfile(
                lambda1=lam1, lambda2=lam2, ln_l2=l2, h_top=h, ln_l1=l1
            )
            beyond = bounds_general_profile(prof, RateExponents(l1 * 2.0, l1 * 2.0))
            assert beyond.entropy_upper == 0.0
            assert beyond.dim_upper == 0.0
            at = bounds_general_profile(prof, RateExponents(l1, l1))
            assert at.entropy_upper == 0.0
            assert at.dim_upper == h / lam1


def test_criterion_9_boundary_continuity():
    with criterion(9, "cat-map entropy continuous into the boundary case"):
        t = CAT_LOG_UNSTABLE - 1e-8
        sharp = sharp_profile_from_matrix(CAT, analyze_matrix(CAT))
        rep = bounds_hyperbolic_set(sharp, RateExponents(t, t))
        assert rep.case_tag is CaseTag.EXACT
        assert 0.0 < rep.entropy_lower < 1e-7


def test_criterion_10_index_counterexample():
    with criterion(10, "period-2 counterexample: empty index intersection vetoes lower bounds"):
        config = parse_config(
            {
                "system": {"kind": "sft", "transition": [[0, 1], [1, 0]], "sided": "two"},
                "rates": [
                    {
                        "phi": {"kind": "exponential", "tau": 0.2},
                        "time_set": {"kind": "arithmetic", "offset": 0, "step": 2},
                        "target": {"kind": "symbols", "head": [], "cycle": [0, 1]},
                    },
                    {
                        "phi": {"kind": "exponential", "tau": 0.2},
                        "time_set": {"kind": "arithmetic", "offset": 0, "step": 2},
                        "target": {"kind": "symbols", "head": [], "cycle": [1, 0]},
                    },
                ],
                "tasks": ["bounds"],
            }
        )
        report, ok, _ = run(config, "bounds")
        assert ok
        (res,) = report["results"]
        (row,) = res["rows"]
        assert sorted(row["index_sets"][0]) == [[0, 0]]
        assert sorted(row["index_sets"][1]) == [[1, 0]]
        assert row["common_difference"] is None
        assert row["h_lower"] is None
        assert row["dim_lower"] is None
