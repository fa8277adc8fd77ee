import json
import math
import random
from dataclasses import fields
from pathlib import Path

import pytest

from shrinktarget import cli
from shrinktarget.cli import _build_parser, fmt, main, run
from shrinktarget.config import (
    FORMATS,
    KEYS,
    KIND_KEYS,
    MAX_DEPTH,
    STREAM_KEYS,
    TASKS,
    ConfigError,
    OracleParams,
    RateTriple,
    load_config,
    parse_config,
)
from shrinktarget.rates import EventuallyPeriodic
from shrinktarget.symbolic import NotMixingError, ShiftOfFiniteType, mixing_gap

from shift_strategies import clique_with_path, moran_estimate

LN2 = math.log(2.0)
CAT_LOG_UNSTABLE = math.log((3.0 + math.sqrt(5.0)) / 2.0)
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)
REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
SCHEMA_PATH = REPO / "docs" / "config_schema.json"
EXAMPLES = sorted((REPO / "docs" / "examples").glob("*.json"))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def cat_map_config(tau=0.0, tasks=("analyze", "exact"), out="out"):
    return {
        "system": {"kind": "matrix", "entries": [[2, 1], [1, 1]]},
        "rates": [
            {
                "phi": {"kind": "exponential", "tau": tau},
                "time_set": {"kind": "all"},
                "target": {"kind": "point", "point": [0.0, 0.0]},
            }
        ],
        "tasks": list(tasks),
        "output": {"dir": out, "formats": ["json"]},
    }


def golden_oracle_config(tau=0.5, tasks=("oracle",), out="out"):
    return {
        "system": {"kind": "sft", "transition": [[1, 1], [1, 0]], "sided": "one"},
        "rates": [
            {
                "phi": {"kind": "exponential", "tau": tau},
                "time_set": {"kind": "all"},
                "target": {"kind": "symbols", "head": [], "cycle": [0]},
            }
        ],
        "tasks": list(tasks),
        "oracle_params": {"depth": 40, "stages": 12, "eta": 0.05},
        "output": {"dir": out, "formats": ["json"]},
    }


def read_report(tmp_path, out="out"):
    return json.loads((tmp_path / out / "report.json").read_text())


class TestRun:
    def test_cat_map_analyze_exact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, cat_map_config(tau=0.0))
        assert main(["exact", "--config", str(cfg)]) == 0
        report = read_report(tmp_path)
        (res,) = report["results"]
        assert res["status"] == "ok"
        (row,) = res["rows"]
        assert row["rule"] == "toral_automorphism_exact"
        assert float(row["h_lower"]) == pytest.approx(CAT_LOG_UNSTABLE, abs=1e-9)
        assert float(row["dim_lower"]) == pytest.approx(2.0, abs=1e-9)

    def test_cat_map_analyze_payload(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, cat_map_config())
        assert main(["analyze", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        assert res["is_hyperbolic"] is True
        assert res["d_s"] == 1 and res["d_u"] == 1
        assert float(res["h_top"]) == pytest.approx(CAT_LOG_UNSTABLE, abs=1e-9)
        assert res["sharp_profile"] is not None

    def test_golden_mean_oracle(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, golden_oracle_config(tau=0.5))
        assert main(["oracle", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
        assert lo < GOLDEN_ENTROPY / 1.5 <= hi
        assert hi - lo <= 0.02
        assert abs(float(row["moran_estimate"]) - GOLDEN_ENTROPY / 1.5) < 0.05

    def test_oracle_rows_equal_one_tau_walks(self, tmp_path, monkeypatch):
        # the call walks every rate's stages at once; each row prints the
        # estimate of a walk over its own tau alone
        monkeypatch.chdir(tmp_path)
        taus = [0.0, 0.05, 0.3, 0.5, 1.0, 1.7, 2.5]
        payload = golden_oracle_config()
        payload["rates"] = [dict(payload["rates"][0], phi={"kind": "exponential", "tau": t}) for t in taus]
        assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 0
        rows = read_report(tmp_path)["results"][0]["rows"]
        shift = ShiftOfFiniteType(((1, 1), (1, 0)))
        assert [row["moran_estimate"] for row in rows] == [fmt(moran_estimate(shift, t, 12)) for t in taus]

    @pytest.mark.parametrize(
        "phi",
        [{"kind": "piecewise_exponential", "period": 1, "taus": [0.3]}, {"kind": "tabulated", "values": [], "tail_tau": 0.3}],
        ids=["period_1", "empty_table"],
    )
    def test_pure_exponential_is_read_by_value(self, tmp_path, monkeypatch, phi):
        # one tau and no table is the pure exponential, however the config spells it
        monkeypatch.chdir(tmp_path)
        results = []
        for spelling in ({"kind": "exponential", "tau": 0.3}, phi):
            payload = golden_oracle_config()
            payload["rates"][0]["phi"] = spelling
            assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 0
            results.append(json.dumps(read_report(tmp_path)["results"]))
        assert results[1] == results[0]

    def test_oracle_zero_entropy_shift(self, tmp_path, monkeypatch):
        # s* = h/(1 + tau) = 0 lies on the grid's first point
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config()
        payload["system"]["transition"] = [[1]]
        assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 0
        (row,) = read_report(tmp_path)["results"][0]["rows"]
        assert (row["bracket_lo"], row["bracket_hi"]) == ("0", "0.01")
        assert row["shift_exact_value"] == row["moran_estimate"] == "0"

    def test_witness_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("witness",))
        payload["rates"][0]["phi"] = {"kind": "exponential", "tau": 0.3}
        payload["oracle_params"]["stages"] = 5
        cfg = write_config(tmp_path, payload)
        assert main(["witness", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        assert row["all_verified"] is True
        assert len(row["planned_hits"]) == 5
        assert row["independently_confirmed"] == row["planned_hits"]
        assert "11" not in row["prefix"]

    def test_witness_where_the_pinned_ratio_rounds_onto_beta(self, tmp_path, monkeypatch):
        # 1/eta rounds to just below 20, and at s = 20 the float pinned / s
        # equals beta = tau + 2 eta; the plan moves on to s = 21
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("witness",))
        payload["oracle_params"].update(stages=3, eta=0.05000000000000001)
        assert main(["witness", "--config", str(write_config(tmp_path, payload))]) == 0
        (row,) = read_report(tmp_path)["results"][0]["rows"]
        assert row["planned_hits"] == row["independently_confirmed"] == [21, 38, 64]
        assert row["all_verified"] is True

    def test_sweep_cat_map(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config()
        del payload["tasks"]
        payload["sweep"] = {"taus": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2]}
        payload["output"]["formats"] = ["json", "csv"]
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        rows = res["rows"]
        assert len(rows) == 7
        for row in rows:
            if float(row["tau"]) > CAT_LOG_UNSTABLE:
                assert float(row["h_upper"]) == 0.0
                assert float(row["dim_upper"]) == 0.0
                assert row["case_tag"] == "degenerate_zero"
        tags = [row["case_tag"] for row in rows]
        assert tags.count("degenerate_zero") == 2  # taus 1.0 and 1.2
        changes = sum(1 for a, b in zip(tags, tags[1:]) if a != b)
        assert changes == 1
        csv_text = (tmp_path / "out" / "sweep.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "tau,h_lower,h_upper,dim_lower,dim_upper,case_tag"
        assert len(lines) == 8
        assert "\r" not in csv_text

    def test_index_counterexample_marks_lower_unavailable(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {
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
            "output": {"dir": "out", "formats": ["json"]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        assert row["h_lower"] is None and row["dim_lower"] is None
        assert row["common_difference"] is None
        assert sorted(row["index_sets"][0]) == [[0, 0]]
        assert sorted(row["index_sets"][1]) == [[1, 0]]

    def test_mixing_two_sided_exact_row(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        payload["system"]["sided"] = "two"
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        assert row["case"] == "exact"
        assert float(row["h_lower"]) == pytest.approx(GOLDEN_ENTROPY / 3.0, abs=1e-9)

    def test_sofic_even_shift_bounds(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {
            "system": {
                "kind": "sofic",
                "states": 2,
                "edges": [[0, 0, "1"], [0, 1, "0"], [1, 0, "0"]],
                "sided": "one",
            },
            "rates": [
                {
                    "phi": {"kind": "exponential", "tau": 0.5},
                    "time_set": {"kind": "all"},
                    "target": {"kind": "symbols", "head": [], "cycle": [0]},
                }
            ],
            "tasks": ["analyze", "bounds"],
            "output": {"dir": "out", "formats": ["json"]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        assert row["case"] == "exact"
        # even-shift entropy equals the golden-mean entropy
        assert float(row["h_lower"]) == pytest.approx(GOLDEN_ENTROPY / 1.5, abs=1e-9)

    def test_periodic_sofic_has_no_lower_bounds(self, tmp_path, monkeypatch):
        # period-2 presentation 0 -a,b-> 1 -c-> 0: not mixing, and no index
        # sets are derived for sofic systems, so the lower sides are unavailable
        monkeypatch.chdir(tmp_path)
        payload = {
            "system": {
                "kind": "sofic",
                "states": 2,
                "edges": [[0, 1, "a"], [0, 1, "b"], [1, 0, "c"]],
                "sided": "two",
            },
            "rates": [
                {
                    "phi": {"kind": "exponential", "tau": 0.3},
                    "time_set": {"kind": "all"},
                    "target": {"kind": "symbols", "head": [], "cycle": [0]},
                }
            ],
            "tasks": ["bounds"],
            "output": {"dir": "out", "formats": ["json"]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        (row,) = read_report(tmp_path)["results"][0]["rows"]
        assert row["period"] == 2
        assert ["mixing", False] in row["assumptions"]
        assert row["h_lower"] is None and row["dim_lower"] is None
        assert float(row["h_upper"]) == pytest.approx(0.5 * LN2 * 0.7 / 1.3, abs=1e-9)

    def test_failed_analysis_is_the_error_of_every_task(self):
        # the analysis comes before each command's own checks, so every
        # command reports the same error, the sweep without a grid too
        payload = golden_oracle_config(tasks=("analyze", "bounds"))
        payload["system"]["transition"] = [[1, 1], [0, 1]]  # reducible
        config = parse_config(payload)
        errors = set()
        for command in (*TASKS, "sweep"):
            report, ok, _ = run(config, command)
            (res,) = report["results"]
            assert not ok and (res["task"], res["status"]) == (command, "error")
            errors.add(res["error"])
        (error,) = errors
        assert "reducible" in error

    def test_restricted_rate_sharpens_lower_not_upper(self, tmp_path, monkeypatch):
        # rate decays at 0.8 on even times, 0.4 on odd; hits counted on evens.
        # The lower side sees the even-branch exponent 0.8; the upper side
        # keeps the rate's own liminf exponent 0.4.
        monkeypatch.chdir(tmp_path)
        payload = {
            "system": {"kind": "sft", "transition": [[1, 1], [1, 1]], "sided": "one"},
            "rates": [
                {
                    "phi": {"kind": "piecewise_exponential", "period": 2, "taus": [0.8, 0.4]},
                    "time_set": {"kind": "arithmetic", "offset": 0, "step": 2},
                    "target": {"kind": "symbols", "head": [], "cycle": [0]},
                }
            ],
            "tasks": ["bounds"],
            "output": {"dir": "out", "formats": ["json"]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        assert float(res["tau_upper"]) == pytest.approx(0.8)
        assert float(res["tau_lower"]) == pytest.approx(0.4)
        (row,) = res["rows"]
        assert float(row["h_lower"]) == pytest.approx(LN2 / 1.8, abs=1e-12)
        assert float(row["h_upper"]) == pytest.approx(LN2 / 1.4, abs=1e-12)

    # The exponent along S comes from S's arithmetic tail alone, so neither
    # a phi that underflows before the tail (exp(-1000)) nor a tail offset
    # past 10^6 may need a table of phi up to the tail.
    FAR_TIME_SETS = [
        pytest.param(1.0, {"kind": "explicit", "times": [1000], "tail": {"offset": 1001, "step": 1}}, id="explicit_tail_1001"),
        pytest.param(0.5, {"kind": "arithmetic", "offset": 2_000_000, "step": 3}, id="arithmetic_2e6"),
    ]

    @pytest.mark.parametrize("system", ["golden_mean", "cat_map"])
    @pytest.mark.parametrize("tau,time_set", FAR_TIME_SETS)
    def test_bounds_on_a_time_set_far_out(self, tmp_path, monkeypatch, system, tau, time_set):
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tau, tasks=("bounds",)) if system == "golden_mean" else cat_map_config(tau, tasks=("bounds",))
        payload["rates"][0]["time_set"] = time_set
        assert main(["bounds", "--config", str(write_config(tmp_path, payload))]) == 0
        res = read_report(tmp_path)["results"][0]
        assert res["status"] == "ok"
        assert (float(res["tau_upper"]), float(res["tau_lower"])) == (tau, tau)
        sides = [row[k] for row in res["rows"] for k in ("h_lower", "h_upper", "dim_lower", "dim_upper")]
        assert sides[0] is not None
        assert all(math.isfinite(float(v)) for v in sides if v is not None)

    # N spelled four ways: only a time set's tail decides which points hit
    # infinitely often, so a set that misses finitely many times is read as
    # all of N, whatever kind the config names
    SPELLINGS_OF_N = [
        {"kind": "all"},
        {"kind": "arithmetic", "offset": 0, "step": 1},
        {"kind": "arithmetic", "offset": 5, "step": 1},
        {"kind": "explicit", "times": [0, 1, 2], "tail": {"offset": 3, "step": 1}},
    ]

    @pytest.mark.parametrize(
        "system,command",
        [("cat_map", c) for c in ("bounds", "exact", "sweep")] + [("golden_mean", c) for c in ("bounds", "oracle", "witness")],
    )
    def test_every_spelling_of_n_gives_the_results_of_all(self, tmp_path, monkeypatch, system, command):
        monkeypatch.chdir(tmp_path)
        results = []
        for time_set in self.SPELLINGS_OF_N:
            payload = cat_map_config(0.3, tasks=("bounds",)) if system == "cat_map" else golden_oracle_config(0.3, tasks=("bounds",))
            payload["rates"][0]["time_set"] = time_set
            payload["sweep"] = {"taus": [0.0, 0.25, 0.5, 1.0, 1.5]}
            assert main([command, "--config", str(write_config(tmp_path, payload))]) == 0
            results.append(read_report(tmp_path)["results"])  # the config echo differs
        assert results[0][0]["status"] == "ok"
        assert results[1:] == results[:1] * 3

    def test_witness_on_a_time_set_far_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tau, time_set = self.FAR_TIME_SETS[0].values
        payload = golden_oracle_config(tau, tasks=("witness",))
        payload["rates"][0]["time_set"] = time_set
        payload["oracle_params"]["stages"] = 3
        assert main(["witness", "--config", str(write_config(tmp_path, payload))]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        assert res["status"] == "ok" and row["all_verified"] is True
        assert row["planned_hits"][0] == 1000
        assert row["independently_confirmed"] == row["planned_hits"]

    def test_witness_power_law_on_all_times(self, tmp_path, monkeypatch):
        # time 0 is in S = N, and min(1, n^-a) is 1 there
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("witness",))
        payload["rates"][0]["phi"] = {"kind": "power_law", "a": 2.0}
        payload["oracle_params"]["stages"] = 4
        assert main(["witness", "--config", str(write_config(tmp_path, payload))]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        assert res["status"] == "ok" and row["all_verified"] is True

    @pytest.mark.parametrize("a", [300.0, 1074.0, 1e308])
    def test_witness_power_law_past_underflow(self, tmp_path, monkeypatch, a):
        # the first hit time is at least 21, where 21^-a underflows to 0; the
        # plan reads -a ln n (past the float range at a = 1e308, which no
        # agreement certifies) and names the block it cannot place
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("witness",))
        payload["rates"][0]["phi"] = {"kind": "power_law", "a": a}
        payload["oracle_params"]["stages"] = 8
        assert main(["witness", "--config", str(write_config(tmp_path, payload))]) == 1
        res = read_report(tmp_path)["results"][0]
        assert res["error"] == "block 1: rate exceeds its exponential envelope along S"

    def test_witness_skips_a_time_whose_rate_underflows(self, tmp_path, monkeypatch):
        # -ln phi(25) = 25e308 overflows, so the first hit is the next time in S
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("witness",))
        payload["rates"][0]["phi"] = {"kind": "piecewise_exponential", "period": 2, "taus": [0.1, 1e308]}
        payload["rates"][0]["time_set"] = {"kind": "explicit", "times": [25], "tail": {"offset": 26, "step": 2}}
        payload["oracle_params"]["stages"] = 3
        assert main(["witness", "--config", str(write_config(tmp_path, payload))]) == 0
        (row,) = read_report(tmp_path)["results"][0]["rows"]
        assert row["all_verified"] is True and row["planned_hits"][0] == 26
        assert row["independently_confirmed"] == row["planned_hits"]

    def test_periodic_sft_with_common_index(self, tmp_path, monkeypatch):
        # bipartite SFT {0,1}<->{2,3}: period 2, entropy ln 2; a class-0 target
        # on even times has index difference 0, so lower bounds stay available
        monkeypatch.chdir(tmp_path)
        payload = {
            "system": {
                "kind": "sft",
                "transition": [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]],
                "sided": "one",
            },
            "rates": [
                {
                    "phi": {"kind": "exponential", "tau": 0.2},
                    "time_set": {"kind": "arithmetic", "offset": 0, "step": 2},
                    "target": {"kind": "symbols", "head": [], "cycle": [0, 2]},
                }
            ],
            "tasks": ["bounds"],
            "output": {"dir": "out", "formats": ["json"]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        (row,) = res["rows"]
        assert row["common_difference"] == 0
        assert float(row["h_top"]) == pytest.approx(LN2, abs=1e-9)
        assert float(row["h_lower"]) == pytest.approx(LN2 / 1.2, abs=1e-9)

    def test_oracle_requires_full_time_set(self):
        payload = golden_oracle_config()
        payload["rates"][0]["time_set"] = {"kind": "arithmetic", "offset": 0, "step": 2}
        with pytest.raises(ConfigError, match="full time set"):
            parse_config(payload)

    def test_sft_analyze_payload(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, golden_oracle_config(tasks=("analyze",)))
        assert main(["analyze", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        assert res["alphabet_size"] == 2
        assert res["period"] == 1
        assert res["mixing_gap"] == 2
        assert float(res["h_top"]) == pytest.approx(GOLDEN_ENTROPY, abs=1e-9)

    def test_clique_with_path_analyze(self, tmp_path, monkeypatch):
        # irreducible, with a Perron vector that falls by about 40^-40 along the path
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("analyze",))
        payload["system"]["transition"] = clique_with_path(40, 40)
        assert main(["analyze", "--config", str(write_config(tmp_path, payload))]) == 0
        res = read_report(tmp_path)["results"][0]
        assert res["period"] == 1
        assert res["h_top"] == "3.68887945411"

    def test_abstract_profile_bounds(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = {
            "system": {
                "kind": "profile",
                "lambda1": 1.0, "lambda2": 1.0, "ln_l1": 1.0, "ln_l2": 1.0,
                "h_top": LN2,
            },
            "rates": [
                {
                    "phi": {"kind": "exponential", "tau": 0.5},
                    "time_set": {"kind": "all"},
                    "target": {"kind": "symbols", "head": [], "cycle": [0]},
                }
            ],
            "tasks": ["bounds"],
            "output": {"dir": "out", "formats": ["json"]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        rows = read_report(tmp_path)["results"][0]["rows"]
        sandwich = next(r for r in rows if r["rule"] == "general_profile_sandwich")
        # constants match exponents, so the lower and upper factors agree
        assert float(sandwich["h_lower"]) == pytest.approx(LN2 / 3.0, abs=1e-12)
        assert float(sandwich["h_upper"]) == pytest.approx(LN2 / 3.0, abs=1e-12)
        covering = next(r for r in rows if r["rule"] == "covering_lower")
        assert float(covering["h_lower"]) == pytest.approx(LN2 / 3.0, abs=1e-12)

    def test_expanding_matrix_bounds_and_exact(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tau=0.1, tasks=("bounds", "exact"))
        payload["system"]["entries"] = [[2, 0], [0, 3]]
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        rows = read_report(tmp_path)["results"][0]["rows"]
        rules = {row["rule"] for row in rows}
        assert {"crude_sandwich", "sharp_sandwich", "covering_lower"} <= rules
        assert main(["exact", "--config", str(cfg)]) == 0
        (row,) = read_report(tmp_path)["results"][0]["rows"]
        assert row["rule"] == "expanding_torus_exact"
        assert row["case"] == "generic"  # distinct moduli: sandwich, not exact
        assert float(row["h_lower"]) < float(row["h_upper"])


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, cat_map_config(tau=0.25))
        assert main(["exact", "--config", str(cfg), "--out", "a"]) == 0
        assert main(["exact", "--config", str(cfg), "--out", "b"]) == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_seedless_recorded(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, cat_map_config())
        assert main(["analyze", "--config", str(cfg), "--seedless"]) == 0
        assert read_report(tmp_path)["seedless"] is True

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SHRINKTARGET_OUT", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, cat_map_config())
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_rows_respect_sandwich(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tau=0.3, tasks=("bounds",))
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        res = read_report(tmp_path)["results"][0]
        for row in res["rows"]:
            for lo_key, hi_key in (("h_lower", "h_upper"), ("dim_lower", "dim_upper")):
                lo, hi = row[lo_key], row[hi_key]
                if lo is not None and hi is not None:
                    assert float(lo) <= float(hi) + 1e-12


class TestValidation:
    def test_empty_tasks_rejected(self):
        payload = cat_map_config()
        payload["tasks"] = []
        with pytest.raises(ConfigError, match=r"\$\.tasks"):
            parse_config(payload)

    def test_oracle_needs_sft(self):
        payload = cat_map_config(tasks=("oracle",))
        with pytest.raises(ConfigError, match="SFT"):
            parse_config(payload)

    def test_field_paths_in_errors(self):
        payload = cat_map_config()
        payload["rates"][0]["phi"] = {"kind": "exponential", "tau": -1}
        with pytest.raises(ConfigError, match=r"rates\[0\]\.phi"):
            parse_config(payload)

    @pytest.mark.parametrize(
        "phi,message",
        [
            ({"kind": "piecewise_exponential", "period": 0, "taus": []}, "period must be >= 1, got 0"),
            ({"kind": "piecewise_exponential", "period": 2, "taus": [0.5]}, "need exactly 2 taus, got 1"),
            ({"kind": "piecewise_exponential", "period": 1, "taus": [0.5, 0.5]}, "need exactly 1 taus, got 2"),
            ({"kind": "piecewise_exponential", "period": 2, "taus": [0.5, -1]}, "tau must be a nonnegative real, got -1.0"),
            ({"kind": "tabulated", "values": [0.5, 1.5], "tail_tau": -1}, "values[1]=1.5 outside (0, 1]; table entries are rejected, not clamped"),
            ({"kind": "tabulated", "values": [0.5], "tail_tau": -1}, "tau must be a nonnegative real, got -1.0"),
            ({"kind": "exponential", "tau": -1}, "tau must be a nonnegative real, got -1.0"),
        ],
        ids=["period_0", "too_few_taus", "too_many_taus", "negative_tau", "table_first", "negative_tail", "negative_exponential"],
    )
    def test_rate_parameter_errors(self, phi, message):
        payload = cat_map_config()
        payload["rates"][0]["phi"] = phi
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == ("$.rates[0].phi", message)

    def test_bad_target_dimension(self):
        payload = cat_map_config()
        payload["rates"][0]["target"] = {"kind": "point", "point": [0.5]}
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(payload)

    def test_inadmissible_symbol_target(self):
        payload = golden_oracle_config()
        payload["rates"][0]["target"] = {"kind": "symbols", "head": [], "cycle": [1]}
        with pytest.raises(ConfigError, match="admissible"):
            parse_config(payload)

    def test_validation_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config()
        payload["tasks"] = []
        cfg = write_config(tmp_path, payload)
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "$.tasks" in capsys.readouterr().err

    def test_task_error_exit_code(self, tmp_path, monkeypatch):
        # shear matrix: not hyperbolic, bounds task errors but still reports
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tasks=("bounds",))
        payload["system"]["entries"] = [[1, 1], [0, 1]]
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 1
        res = read_report(tmp_path)["results"][0]
        assert res["status"] == "error"
        assert "modulus at 1" in res["error"]

    @pytest.mark.parametrize("formats", [["csv"], ["json"], ["json", "csv"]])
    def test_task_error_named_on_stderr(self, tmp_path, monkeypatch, capsys, formats):
        # a CSV-only run writes no file, so stderr is where its error shows
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tasks=("bounds",))
        payload["system"]["entries"] = [[1, 1], [0, 1]]
        payload["output"]["formats"] = formats
        assert main(["bounds", "--config", str(write_config(tmp_path, payload))]) == 1
        err = capsys.readouterr().err
        assert "error: spectrum has a modulus at 1; no bounds apply\n" in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == (["report.json"] if "json" in formats else [])

    def test_task_error_named_with_format_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tasks=("bounds",))
        payload["system"]["entries"] = [[1, 1], [0, 1]]
        assert main(["bounds", "--config", str(write_config(tmp_path, payload)), "--format", "csv"]) == 1
        assert "error: spectrum has a modulus at 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "exact", "oracle", "witness"])
    @pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config"])
    def test_json_only_command_refuses_csv_only_output(self, tmp_path, monkeypatch, capsys, command, by_flag):
        # these commands write report.json alone: CSV-only output would write nothing
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config() if command in ("analyze", "exact") else golden_oracle_config(tasks=("oracle", "witness"))
        if not by_flag:
            payload["output"]["formats"] = ["csv"]
        argv = [command, "--config", str(write_config(tmp_path, payload))] + (["--format", "csv"] if by_flag else [])
        assert main(argv) == 2
        assert f"{command} writes only report.json, so its formats need 'json'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_error_line_on_success(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bounds", "--config", str(write_config(tmp_path, cat_map_config(tasks=("bounds",))))]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "bounds", "sweep"])
    @pytest.mark.parametrize("power", [512, 1023, 1024])
    def test_matrix_beyond_the_float_range_rejected(self, tmp_path, monkeypatch, capsys, command, power):
        # these used to end in nan sides (2^512: |A|^2 overflows in the norm),
        # "math domain error" (2^1023: the root 2^-1023 became 0) or an
        # OverflowError traceback (2^1024: det(xI - A) has no float coefficients)
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tasks=("analyze",))
        payload["system"]["entries"] = [[2**power, 1], [1, 0]]
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert exc.value.path == "$.system" and "float range" in exc.value.message
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert "$.system: matrix beyond the float range" in err and "Traceback" not in err

    def test_matrix_at_the_edge_of_the_float_range(self, tmp_path, monkeypatch):
        # |A|^2 = 2^1022 + 2: every constant is ln of the root 2^511 + 2^-511
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tau=0.2)
        payload["system"]["entries"] = [[2**511, 1], [1, 0]]
        cfg = str(write_config(tmp_path, payload))
        assert main(["analyze", "--config", cfg, "--out", "a"]) == main(["bounds", "--config", cfg, "--out", "b"]) == 0
        ((analyze,), (bounds,)) = (read_report(tmp_path, out)["results"] for out in "ab")
        log_root = fmt(511 * LN2)
        assert log_root == "354.198209266"
        for profile in ("crude_profile", "sharp_profile"):
            assert set(analyze[profile].values()) == {log_root}
        assert [(row["rule"], row["h_lower"], row["dim_lower"]) for row in bounds["rows"]] == [
            (rule, "353.798435001", "1.99887132613") for rule in ("crude_sandwich", "sharp_sandwich", "covering_lower")
        ]

    def test_gram_polynomial_beyond_the_float_range(self, tmp_path, monkeypatch):
        # B (+) B, B = [[2^300, 1], [1, 0]]: det(xI - A^T A) has a coefficient near
        # 2^1200, but its square-free factor (the Gram polynomial of B) fits
        monkeypatch.chdir(tmp_path)
        b = 2**300
        payload = cat_map_config(tau=0.2)
        payload["system"]["entries"] = [[b, 1, 0, 0], [1, 0, 0, 0], [0, 0, b, 1], [0, 0, 1, 0]]
        payload["rates"][0]["target"]["point"] = [0.0] * 4
        cfg = str(write_config(tmp_path, payload))
        assert main(["analyze", "--config", cfg, "--out", "a"]) == main(["bounds", "--config", cfg, "--out", "b"]) == 0
        ((analyze,), (bounds,)) = (read_report(tmp_path, out)["results"] for out in "ab")
        log_root = fmt(300 * LN2)
        assert log_root == "207.944154168"
        for profile in ("crude_profile", "sharp_profile"):
            assert analyze[profile] == dict.fromkeys(("lambda1", "lambda2", "ln_l1", "ln_l2"), log_root) | {
                "h_top": "415.888308336"
            }
        assert [(c["modulus"], c["multiplicity"]) for c in analyze["clusters"]] == [
            ("4.9090934653e-91", 2),
            ("2.03703597633e+90", 2),
        ]
        assert [(row["rule"], row["case"], row["h_lower"], row["dim_lower"]) for row in bounds["rows"]] == [
            ("crude_sandwich", "exact", "415.089077034", "3.99615650988"),
            ("sharp_sandwich", "exact", "415.089077034", "3.99615650988"),
            ("covering_lower", "generic", "415.089077034", "3.99615650988"),
        ]

    def test_root_moduli_spread_over_2_to_the_330(self, tmp_path, monkeypatch):
        # the companion matrix of x^10 + f_1 x^9 + ... + f_10 with |f_i| < 10^100: one
        # root near 7.7e99 and nine near 1, all within 2^1022 of the root bound
        monkeypatch.chdir(tmp_path)
        rng = random.Random(3)
        f = [rng.randint(-(10**100), 10**100) for _ in range(10)]
        payload = cat_map_config(tasks=("analyze",))
        payload["system"]["entries"] = [[int(j == i - 1) for j in range(9)] + [-f[9 - i]] for i in range(10)]
        payload["rates"][0]["target"]["point"] = [0.0] * 10
        assert main(["analyze", "--config", str(write_config(tmp_path, payload))]) == 0
        (res,) = read_report(tmp_path)["results"]
        # the moduli of mpmath.polyroots at 50 digits, to 12
        assert [(c["modulus"], c["multiplicity"]) for c in res["clusters"]] == [
            ("0.376096315603", 2),
            ("0.941645968798", 2),
            ("1.00726583752", 2),
            ("1.12117587436", 1),
            ("1.13090388073", 1),
            ("1.31399731001", 1),
            ("7.70684521792e+99", 1),
        ]

    @pytest.mark.parametrize("command", ["analyze", "bounds", "sweep"])
    @pytest.mark.parametrize(
        "entries",
        [
            # a root near -2^-800, 2^1200 below the factor's root bound 2^400:
            # the root finder returns 0 for it, which the float-range guard refuses
            [[2**400, 2**400, 1], [2**400, 2, 0], [1, 0, 0]],
            # det(xI - A) = (x - 2^400)^3 - 1 is square-free, and 2^1200 has no float
            [[2**400, 1, 0], [0, 2**400, 1], [1, 0, 2**400]],
        ],
        ids=["tiny_root", "huge_coefficient"],
    )
    def test_spectrum_beyond_the_float_range_is_an_error_row(self, tmp_path, monkeypatch, command, entries):
        # |A|^2 fits, so the load accepts the matrix; the analysis refuses it
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tasks=("analyze",))
        payload["system"]["entries"] = entries
        payload["rates"][0]["target"]["point"] = [0.0] * 3
        payload["sweep"] = {"taus": [0.0, 0.5]}
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 1
        (res,) = read_report(tmp_path)["results"]
        assert res["status"] == "error" and res["error"].startswith("spectrum beyond the float range")

    @pytest.mark.parametrize(
        "command,params,message",
        [
            ("oracle", {"stages": 182}, "stages = 182: the stage lengths leave the float range"),
            ("oracle", {"stages": 0}, "stages must be >= 1"),
            ("witness", {"eta": 1e-310}, "eta = 1e-310 at tau = 0.5: block 1 pushes"),
            ("witness", {"eta": 1e308}, "eta = 1e+308 at tau = 0.5: block 1 pushes"),
        ],
        ids=["stages_overflow", "stages_zero", "eta_tiny", "eta_huge"],
    )
    def test_oracle_params_out_of_range_are_error_rows(self, tmp_path, monkeypatch, capsys, command, params, message):
        # each passes validation, then asks for a layout beyond the float range
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=(command,))
        payload["oracle_params"].update(params)
        parse_config(payload)
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 1
        (res,) = read_report(tmp_path)["results"]
        assert res["status"] == "error" and message in res["error"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "taus,message",
        [
            ([0.1, 0.5], "grid does not straddle the critical exponent (s* = 1, grid [0, 0.58])"),
            ([0.5, 0.1], "stages = 182: the stage lengths leave the float range"),
        ],
        ids=["bracket_first", "layout_first"],
    )
    def test_first_failing_rate_names_the_error(self, tmp_path, monkeypatch, taus, message):
        # tau = 0.1 misses the grid (its fit is set to 1, past h_top + 0.1) and
        # tau = 0.5 has no layout at 182 stages: the report names whichever
        # comes first in rate order, although the Moran walk runs once after
        # every rate's bracket and layout
        monkeypatch.chdir(tmp_path)
        fit = cli.critical_exponent
        monkeypatch.setattr(cli, "critical_exponent", lambda scheme, *a: 1.0 if scheme.tau == 0.1 else fit(scheme, *a))
        payload = golden_oracle_config()
        payload["rates"] = [dict(payload["rates"][0], phi={"kind": "exponential", "tau": t}) for t in taus]
        payload["oracle_params"]["stages"] = 182
        assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 1
        (res,) = read_report(tmp_path)["results"]
        assert res["status"] == "error" and res["error"] == message

    def test_command_outside_config_tasks_checks_system_kind(self, tmp_path, monkeypatch):
        # the CLI command need not be among the config's tasks, so the
        # executors themselves reject systems they have no theorem for
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        cfg = write_config(tmp_path, payload)
        assert main(["exact", "--config", str(cfg)]) == 1
        assert "requires a matrix system" in read_report(tmp_path)["results"][0]["error"]
        payload["system"] = {"kind": "profile", "lambda1": 1.0, "lambda2": 1.0, "ln_l1": 1.0, "ln_l2": 1.0, "h_top": LN2}
        cfg = write_config(tmp_path, payload)
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert "task 'analyze' requires a matrix or symbolic system" in read_report(tmp_path)["results"][0]["error"]

    # (command, edits to the golden-mean oracle config, path, message): what
    # each command needs of a config, one fault per case
    TASK_REQUIREMENTS = [
        ("exact", {}, "$.tasks", "task 'exact' requires a matrix system"),
        ("analyze", {"system": {"kind": "profile", "lambda1": 1.0, "lambda2": 1.0, "ln_l1": 1.0, "ln_l2": 1.0, "h_top": LN2}},
         "$.tasks", "task 'analyze' requires a matrix or symbolic system"),
        *[
            (command, {"system": {"kind": "matrix", "entries": [[2, 1], [1, 1]]}, "rate": {"target": {"kind": "point", "point": [0.0, 0.0]}}},
             "$.tasks", f"task {command!r} requires an SFT system")
            for command in ("oracle", "witness")
        ],
        *[
            (command, {"system": {"kind": "sft", "transition": [[1, 1], [1, 0]], "sided": "two"}},
             "$.tasks", "oracle/witness tasks need a one-sided SFT")
            for command in ("oracle", "witness")
        ],
        ("oracle", {"rate": {"time_set": {"kind": "arithmetic", "offset": 0, "step": 3}}},
         "$.rates[0].time_set", "oracle schemes need the full time set"),
        ("oracle", {"rate": {"phi": {"kind": "power_law", "a": 2.0}}},
         "$.rates[0].phi", "oracle schemes need a pure exponential rate"),
        ("oracle", {"rate": {"phi": {"kind": "piecewise_exponential", "period": 2, "taus": [0.5, 0.5]}}},
         "$.rates[0].phi", "oracle schemes need a pure exponential rate"),
        ("oracle", {"rate": {"phi": {"kind": "tabulated", "values": [1.0], "tail_tau": 0.5}}},
         "$.rates[0].phi", "oracle schemes need a pure exponential rate"),
        ("oracle", {"rate": {"target": {"kind": "symbol_schedule", "cycle": [{"cycle": [0]}, {"cycle": [1, 0]}]}}},
         "$.rates[0].target", "oracle schemes need a constant symbol target"),
        ("witness", {"rate": {"phi": {"kind": "exponents", "tau_upper": 0.5, "tau_lower": 0.5}}},
         "$.rates[0].phi", "witness construction needs a rate function"),
        ("sweep", {}, "$.sweep", "sweep requires a sweep.taus grid"),
    ]

    @pytest.mark.parametrize(
        "command,edits,path,message", TASK_REQUIREMENTS,
        ids=["exact_sft", "analyze_profile", "oracle_matrix", "witness_matrix", "oracle_two_sided",
             "witness_two_sided", "oracle_arithmetic_s", "oracle_power_law", "oracle_period_2",
             "oracle_table", "oracle_two_streams",
             "witness_exponents", "sweep_no_grid"],
    )
    def test_task_requirement_on_both_paths(self, tmp_path, monkeypatch, command, edits, path, message):
        # a configured task fails the load; the same command run from the CLI
        # outside config.tasks gets the same message as an error row
        monkeypatch.chdir(tmp_path)

        def payload(tasks):
            p = golden_oracle_config(tasks=tasks)
            p["system"] = edits.get("system", p["system"])
            p["rates"][0].update(edits.get("rate", {}))
            return p

        if command != "sweep":  # a grid, not a task entry, asks for a sweep
            with pytest.raises(ConfigError) as exc:
                parse_config(payload((command,)))
            assert (exc.value.path, exc.value.message) == (path, message)
        assert main([command, "--config", str(write_config(tmp_path, payload(("bounds",))))]) == 1
        (res,) = read_report(tmp_path)["results"]
        assert (res["status"], res["error"]) == ("error", f"{path}: {message}")

    @pytest.mark.parametrize("command", ["oracle", "witness"])
    def test_symbolic_command_on_matrix_system(self, tmp_path, monkeypatch, command):
        # an error row and exit 1, not an uncaught AssertionError
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, cat_map_config(tasks=("bounds",)))
        assert main([command, "--config", str(cfg)]) == 1
        res = read_report(tmp_path)["results"][0]
        assert res["status"] == "error"
        assert res["error"] == f"$.tasks: task {command!r} requires an SFT system"

    @pytest.mark.parametrize("command", ["oracle", "witness"])
    def test_symbolic_command_on_two_sided_shift(self, tmp_path, monkeypatch, command):
        # validation rejects these tasks on a two-sided SFT only when they are
        # among config.tasks; the command itself must fail too, not certify
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        payload["system"]["sided"] = "two"
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", str(cfg)]) == 1
        res = read_report(tmp_path)["results"][0]
        assert res["status"] == "error"
        assert "one-sided" in res["error"]

    @pytest.mark.parametrize(
        "time_set",
        [
            {"kind": "arithmetic", "offset": 10**400, "step": 1},
            {"kind": "arithmetic", "offset": 0, "step": 10**400},
            {"kind": "explicit", "times": [1], "tail": {"kind": "arithmetic", "offset": 10**400, "step": 1}},
        ],
        ids=["offset", "step", "tail_offset"],
    )
    def test_witness_on_times_beyond_the_float_range(self, tmp_path, monkeypatch, time_set):
        # the first hit lies past the prefix limit, so the plan stops before
        # its pinned length, a float product, overflows
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        payload["rates"][0]["time_set"] = time_set
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 0
        assert main(["witness", "--config", str(cfg)]) == 1
        (res,) = read_report(tmp_path)["results"]
        assert (res["status"], res["error"]) == ("error", "block 1 pushes the witness prefix past 10000000 symbols")

    @pytest.mark.parametrize("command", ["oracle", "witness"])
    def test_symbolic_command_on_periodic_shift(self, tmp_path, monkeypatch, command):
        # both commands space their blocks by the mixing gap, which a
        # periodic shift does not have
        monkeypatch.chdir(tmp_path)
        flip = [[0, 1], [1, 0]]
        payload = golden_oracle_config(tasks=(command,))
        payload["system"]["transition"] = flip
        payload["rates"][0]["target"]["cycle"] = [0, 1]
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", str(cfg)]) == 1
        res = read_report(tmp_path)["results"][0]
        assert res["status"] == "error"
        # the row names the commands, not a library function
        assert res["error"] == "oracle and witness need a mixing SFT (period 1); this shift has period 2"
        with pytest.raises(NotMixingError) as exc:
            mixing_gap(ShiftOfFiniteType(tuple(map(tuple, flip))))
        assert exc.value.period == 2

    def test_nan_in_sweep_grid_rejected(self, tmp_path, monkeypatch, capsys):
        # every comparison with NaN is false, so the order and sign checks pass it
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tasks=())
        payload["sweep"] = {"taus": [math.nan, 0.5]}
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert exc.value.path == "$.sweep.taus[0]"
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "$.sweep.taus[0]: expected a number, got nan" in capsys.readouterr().err

    def test_nan_profile_number_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = self._profile_config(1.0, 1.2)
        payload["system"]["h_top"] = math.nan
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert exc.value.path == "$.system.h_top"
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert "$.system.h_top: expected a number, got nan" in capsys.readouterr().err

    def test_depth_capped(self, tmp_path, monkeypatch, capsys):
        # the fit's time grows as depth^2, so the load bounds it; neither
        # config runs the fit
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config()
        payload["oracle_params"]["depth"] = MAX_DEPTH
        assert parse_config(payload).oracle_params.depth == MAX_DEPTH
        payload["oracle_params"]["depth"] = MAX_DEPTH + 1
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == ("$.oracle_params.depth", f"depth must be <= {MAX_DEPTH}")
        assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"$.oracle_params.depth: depth must be <= {MAX_DEPTH}" in capsys.readouterr().err
        depth = json.loads(SCHEMA_PATH.read_text())["properties"]["oracle_params"]["properties"]["depth"]
        assert depth["maximum"] == MAX_DEPTH

    @pytest.mark.parametrize("big", [math.inf, 10**400], ids=["Infinity", "huge_int"])
    def test_infinite_profile_number_rejected(self, tmp_path, monkeypatch, capsys, big):
        # an integer literal beyond the float range used to raise OverflowError
        monkeypatch.chdir(tmp_path)
        payload = self._profile_config(1.0, 1.2)
        payload["system"]["h_top"] = big
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert exc.value.path == "$.system.h_top"
        cfg = write_config(tmp_path, payload)
        assert main(["bounds", "--config", str(cfg)]) == 2
        assert "$.system.h_top: expected a finite number, got inf" in capsys.readouterr().err

    def test_infinity_kept_where_it_is_meant(self):
        payload = self._profile_config(math.inf, None)
        payload["rates"][0]["phi"] = {"kind": "exponents", "tau_upper": math.inf, "tau_lower": 0.5}
        config = parse_config(payload)
        assert config.system.lambda1 == config.rates[0].phi.tau_upper == math.inf

    INF_PATHS = {"lambda1": "$.system.lambda1", "tau_upper": "$.rates[0].phi.tau_upper", "tau_lower": "$.rates[0].phi.tau_lower"}

    def _inf_config(self, lambda1="inf", tau_upper="inf", tau_lower=0.5):
        payload = self._profile_config(lambda1, None)
        payload["rates"][0]["phi"] = {"kind": "exponents", "tau_upper": tau_upper, "tau_lower": tau_lower}
        return payload

    @pytest.mark.parametrize("key", sorted(INF_PATHS))
    def test_infinity_is_spelled_inf(self, tmp_path, monkeypatch, capsys, key):
        # the one string spelling of infinity, as the schema says
        monkeypatch.chdir(tmp_path)
        path = self.INF_PATHS[key]
        payload = self._inf_config(**{key: "Infinity"})
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == (path, "expected a number, got 'Infinity'")
        assert main(["bounds", "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"config error: {path}: expected a number, got 'Infinity'\n"
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        assert not validator.is_valid(payload)
        payload = self._inf_config(**{key: "inf"})
        assert validator.is_valid(payload)
        config = parse_config(payload)
        assert config.system.lambda1 == config.rates[0].phi.tau_upper == math.inf
        assert config.rates[0].phi.tau_lower == (math.inf if key == "tau_lower" else 0.5)

    @pytest.mark.parametrize("kind,key", [("matrix", "entries"), ("sft", "transition")])
    @pytest.mark.parametrize("bad", [True, 1.0, "1", None, [1]], ids=["true", "float", "string", "null", "list"])
    def test_matrix_entry_named_by_its_path(self, tmp_path, monkeypatch, capsys, kind, key, bad):
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config() if kind == "matrix" else golden_oracle_config()
        payload["system"][key][1][0] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == (f"$.system.{key}[1][0]", f"expected an integer, got {bad!r}")
        cfg = write_config(tmp_path, payload)
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert f"$.system.{key}[1][0]: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["entries", "transition"])
    def test_matrix_row_named_by_its_path(self, key):
        payload = cat_map_config() if key == "entries" else golden_oracle_config()
        payload["system"][key][1] = 7
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == (f"$.system.{key}[1]", "expected a list, got int")

    # (lambda1, ln_l1) -> the validation message; None: a consistent profile
    PROFILE_SHAPES = [
        (1.0, 1.2, None),
        ("inf", None, None),
        ("inf", 1.2, "needs a finite lambda1"),
        (1.0, None, "needs lambda1 = \"inf\""),
    ]

    @staticmethod
    def _profile_config(lambda1, ln_l1):
        system = {"kind": "profile", "lambda1": lambda1, "lambda2": 1.5, "ln_l2": 1.7, "h_top": 0.9}
        if ln_l1 is not None:
            system["ln_l1"] = ln_l1
        return {
            "system": system,
            "rates": [
                {
                    "phi": {"kind": "exponential", "tau": 0.5},
                    "time_set": {"kind": "all"},
                    "target": {"kind": "symbols", "head": [], "cycle": [0]},
                }
            ],
            "tasks": ["bounds"],
            "output": {"dir": "out", "formats": ["json"]},
        }

    @pytest.mark.parametrize("command", ["bounds", "sweep"])
    @pytest.mark.parametrize("lambda1,ln_l1,message", PROFILE_SHAPES[2:])
    def test_inconsistent_profile_rejected(self, tmp_path, monkeypatch, capsys, command, lambda1, ln_l1, message):
        # no theorem reads such a profile, so it fails at load, not in every
        # bounds/sweep task
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, self._profile_config(lambda1, ln_l1))
        assert main([command, "--config", str(cfg)]) == 2
        assert "$.system: a " in capsys.readouterr().err
        with pytest.raises(ConfigError, match=message) as exc:
            parse_config(self._profile_config(lambda1, ln_l1))
        assert exc.value.path == "$.system"

    @pytest.mark.parametrize("command", ["bounds", "sweep"])
    def test_profile_dimension_conflict_masked(self, tmp_path, monkeypatch, command):
        # the dimension lower side (1/ln L1 + 1/ln L2) h = 2 lies above its upper
        # side (1/lambda1 + 1/lambda2) h = 1.5 while the entropy sides agree
        monkeypatch.chdir(tmp_path)
        payload = self._profile_config(1, 1)
        payload["system"].update(lambda2=2, ln_l2=1, h_top=1)
        payload["rates"][0]["phi"]["tau"] = 0
        payload["sweep"] = {"taus": [0, 0.5]}
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 0
        rows = read_report(tmp_path)["results"][0]["rows"]
        row = rows[0] if command == "sweep" else next(r for r in rows if r["rule"] == "general_profile_sandwich")
        assert (row["h_lower"], row["h_upper"], row["dim_lower"], row["dim_upper"]) == ("1", "1", None, "1.5")
        if command == "bounds":
            assert ["lower/upper regime conflict", False] in row["assumptions"]
        else:
            assert rows[1]["h_lower"] is None and rows[1]["dim_lower"] is None

    @pytest.mark.parametrize("lambda1,ln_l1,message", PROFILE_SHAPES)
    def test_schema_profile_shapes_match_config(self, lambda1, ln_l1, message):
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        payload = self._profile_config(lambda1, ln_l1)
        assert validator.is_valid(payload) == (message is None)
        if message is None:
            parse_config(payload)

    @pytest.mark.parametrize(
        "path", sorted(GOLDEN.glob("*/*/report.json")) + EXAMPLES, ids=lambda p: f"{p.parent.parent.name}/{p.parent.name}"
        if p.name == "report.json" else f"examples/{p.stem}"
    )
    def test_schema_accepts_every_golden_config(self, path):
        # the config of every golden report, and every example config
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        config = json.loads(path.read_text())
        if path.name == "report.json":
            config = config["config"]
        errors = [f"{e.json_path}: {e.message}" for e in validator.iter_errors(config)]
        assert errors == []

    @pytest.mark.parametrize("command", ["bounds", "exact", "witness"])
    def test_explicit_time_set_needs_a_tail(self, tmp_path, monkeypatch, capsys, command):
        # the hit set of a bounded S is empty: no task can report on it
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config(tasks=(command,)) if command != "witness" else golden_oracle_config(tasks=(command,))
        payload["rates"][0]["time_set"] = {"kind": "explicit", "times": [1, 2, 3]}
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == ("$.rates[0].time_set.tail", "missing required field")
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 2
        assert "$.rates[0].time_set.tail: missing required field" in capsys.readouterr().err
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text()))
        assert not validator.is_valid(payload)
        payload["rates"][0]["time_set"]["tail"] = {"offset": 4, "step": 1}
        assert validator.is_valid(payload)
        parse_config(payload)

    @pytest.mark.parametrize("bad", [None, 5, True, ["out"]], ids=["null", "int", "true", "list"])
    def test_output_dir_must_be_a_string(self, tmp_path, monkeypatch, capsys, bad):
        # a non-string must not become a directory name such as "None"
        monkeypatch.chdir(tmp_path)
        payload = cat_map_config()
        payload["output"]["dir"] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == ("$.output.dir", f"expected a string, got {bad!r}")
        assert main(["analyze", "--config", str(write_config(tmp_path, payload))]) == 2
        assert "$.output.dir: expected a string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("label", [None, 1, True, ["1"]], ids=["null", "int", "true", "list"])
    def test_sofic_label_must_be_a_string(self, tmp_path, monkeypatch, capsys, label):
        # a non-string must not become a label such as "None", nor 1 the label "1"
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("analyze",))
        payload["system"] = {"kind": "sofic", "states": 2, "edges": [[0, 0, "1"], [0, 1, "0"], [1, 0, label]]}
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == ("$.system.edges[2][2]", f"expected a string, got {label!r}")
        assert main(["analyze", "--config", str(write_config(tmp_path, payload))]) == 2
        assert "config error: $.system.edges[2][2]: expected a string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        jsonschema = pytest.importorskip("jsonschema")  # the schema says so too
        assert not jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text())).is_valid(payload)

    @pytest.mark.parametrize("system", ["sft", "sofic"])
    @pytest.mark.parametrize(
        "target,path,symbol",
        [
            ({"kind": "symbols", "cycle": [99, -5]}, "$.rates[0].target.cycle[1]", -5),
            ({"kind": "symbols", "head": [-1], "cycle": [0]}, "$.rates[0].target.head[0]", -1),
            ({"kind": "symbol_schedule", "cycle": [{"cycle": [0]}, {"cycle": [0, -2]}]}, "$.rates[0].target.cycle[1].cycle[1]", -2),
        ],
        ids=["cycle", "head", "schedule"],
    )
    def test_negative_symbol_named_by_its_path(self, tmp_path, monkeypatch, capsys, system, target, path, symbol):
        # a symbol is a nonnegative integer on every symbolic system, checked at its own entry
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        payload["system"] = self.TARGET_SYSTEMS[system]
        payload["rates"][0]["target"] = target
        message = f"expected a nonnegative integer, got {symbol}"
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == (path, message)
        assert main(["bounds", "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        jsonschema = pytest.importorskip("jsonschema")  # the schema spells out every stream
        assert not jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text())).is_valid(payload)

    @pytest.mark.parametrize(
        "path",
        ["$.oracle_param", "$.output_dir", "$.oracle_params.depht", "$.oracle_params.grid_step",
         "$.oracle_params.grid_min", "$.oracle_params.grid_max", "$.output.format", "$.sweep.tau",
         "$.rates[0].phis", "$.system.sidde", "$.rates[0].phi.taus", "$.rates[0].time_set.offset",
         "$.rates[0].target.haed"],
    )
    def test_unknown_key_named_by_its_path(self, tmp_path, monkeypatch, capsys, path):
        # the objects with fixed keys are closed, in the schema and the parser
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config()
        payload["sweep"] = {"taus": [0.0, 0.5]}
        *parents, key = path[2:].replace("[", ".").replace("]", "").split(".")
        obj = payload
        for parent in parents:
            obj = obj[int(parent)] if parent.isdigit() else obj[parent]
        obj[key] = 200
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == (path, "unknown key")
        assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown key\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        jsonschema = pytest.importorskip("jsonschema")
        assert not jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text())).is_valid(payload)

    @pytest.mark.parametrize("obj,kind", [(obj, kind) for obj, kinds in KIND_KEYS.items() for kind in kinds])
    def test_unknown_key_of_each_kind(self, obj, kind):
        # a kind-dependent object takes the keys of its kind only, checked before its fields
        payload = golden_oracle_config(tasks=("bounds",))
        parent, path = (payload, "$") if obj == "system" else (payload["rates"][0], "$.rates[0]")
        parent[obj] = {"kind": kind, "extra": 1}
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == (f"{path}.{obj}.extra", "unknown key")

    def test_unknown_key_in_a_schedule_stream(self, tmp_path, monkeypatch, capsys):
        # a misspelt head would otherwise drop the head: the stream 000... instead of 1000...
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        payload["rates"][0]["target"] = {"kind": "symbol_schedule", "cycle": [{"cycle": [0]}, {"haed": [1], "cycle": [0]}]}
        path = "$.rates[0].target.cycle[1].haed"
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == (path, "unknown key")
        assert main(["bounds", "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown key\n"
        jsonschema = pytest.importorskip("jsonschema")
        assert not jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text())).is_valid(payload)
        del payload["rates"][0]["target"]["cycle"][1]["haed"]
        assert jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text())).is_valid(payload)

    TARGETS = {
        "point": {"kind": "point", "point": [0.0, 0.0]},
        "points": {"kind": "points", "preperiod": [[0.5, 0.25]], "cycle": [[0.0, 0.0], [0.5, 0.5]]},
        "symbols": {"kind": "symbols", "head": [1], "cycle": [0]},
        "symbol_schedule": {
            "kind": "symbol_schedule",
            "preperiod": [{"head": [1], "cycle": [0]}],
            "cycle": [{"cycle": [0]}, {"cycle": [0, 1]}],
        },
    }
    TARGET_SYSTEMS = {
        "matrix": {"kind": "matrix", "entries": [[2, 1], [1, 1]]},
        "sft": {"kind": "sft", "transition": [[1, 1], [1, 0]], "sided": "one"},
        "sofic": {"kind": "sofic", "states": 2, "edges": [[0, 0, "0"], [0, 1, "1"], [1, 0, "1"]]},
        "profile": {"kind": "profile", "lambda1": "inf", "lambda2": 1.5, "ln_l2": 1.7, "h_top": 0.9},
    }

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("system", TARGET_SYSTEMS)
    def test_target_kind_against_system_kind(self, tmp_path, monkeypatch, capsys, system, target):
        # a torus takes points, a shift symbol streams, and a profile, which has no phase space, either
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        payload["system"] = self.TARGET_SYSTEMS[system]
        payload["rates"][0]["target"] = self.TARGETS[target]
        points = target.startswith("point")
        message = None
        if system == "matrix" and not points:
            message = "torus systems need a point-valued target"
        elif system in ("sft", "sofic") and points:
            message = "symbolic systems need a symbol-valued target"
        if message is None:
            z = parse_config(payload).rates[0].target
            assert isinstance(z, EventuallyPeriodic)
            assert all(isinstance(x, tuple if points else EventuallyPeriodic) for x in z.head + z.cycle)
            return
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == ("$.rates[0].target", message)
        assert main(["bounds", "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"config error: $.rates[0].target: {message}\n"

    def test_schema_enums_match_config(self):
        props = json.loads(SCHEMA_PATH.read_text())["properties"]
        assert tuple(props["tasks"]["items"]["enum"]) == TASKS
        assert tuple(props["output"]["properties"]["formats"]["items"]["enum"]) == FORMATS

    def test_schema_keys_match_config(self):
        # the closed objects: their keys are named in the parser and the schema alike
        schema = json.loads(SCHEMA_PATH.read_text())
        props = schema["properties"]
        rate = props["rates"]["items"]
        assert set(props) == set(KEYS)
        assert set(props["oracle_params"]["properties"]) == {f.name for f in fields(OracleParams)}
        assert set(rate["properties"]) == {f.name for f in fields(RateTriple)}
        assert set(props["sweep"]["properties"]) == {"taus"}
        assert set(props["output"]["properties"]) == {"dir", "formats"}
        for closed in (schema, props["oracle_params"], rate, props["sweep"], props["output"]):
            assert closed["additionalProperties"] is False
        # each kind of the kind-dependent objects, and a schedule's symbol stream
        branches = {"system": props["system"]["oneOf"]}
        branches.update((obj, rate["properties"][obj]["oneOf"]) for obj in ("phi", "time_set", "target"))
        assert set(branches) == set(KIND_KEYS)
        for obj, kinds in branches.items():
            by_kind = {b["properties"]["kind"]["const"]: b for b in kinds}
            assert len(by_kind) == len(kinds)
            assert {kind: set(b["properties"]) for kind, b in by_kind.items()} == {
                kind: set(keys) for kind, keys in KIND_KEYS[obj].items()
            }
            for closed in kinds:
                assert closed["additionalProperties"] is False
        stream = schema["$defs"]["symbol_stream"]
        assert set(stream["properties"]) == set(STREAM_KEYS)
        assert stream["additionalProperties"] is False

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "text", [b"\xff\xfe{}", b'{"rates": [' + b"1" * 5000 + b"]}"], ids=["not_utf8", "past_digit_limit"]
    )
    def test_unreadable_json_text_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
        assert main(["bounds", "--config", str(path)]) == 2
        assert "config error: $: invalid JSON" in capsys.readouterr().err

    def test_sofic_state_count_beyond_the_float_range(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        payload["system"] = {"kind": "sofic", "states": 10**400, "edges": [[0, 0, "a"]]}
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert (exc.value.path, exc.value.message) == ("$.system", "state 1 has no outgoing edge")
        assert main(["bounds", "--config", str(write_config(tmp_path, payload))]) == 2
        assert "$.system: state 1 has no outgoing edge" in capsys.readouterr().err


class TestSweepGridValidation:
    @staticmethod
    def _grid_config(taus):
        payload = cat_map_config(tasks=())
        payload["sweep"] = {"taus": taus}
        return payload

    @pytest.mark.parametrize("bad", ["0.7", True, None], ids=["string", "true", "null"])
    def test_bad_element_named_by_its_path(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.chdir(tmp_path)
        taus = [0.1 * k for k in range(12)]
        taus[7] = bad
        with pytest.raises(ConfigError) as info:
            parse_config(self._grid_config(taus))
        assert info.value.path == "$.sweep.taus[7]"
        cfg = write_config(tmp_path, self._grid_config(taus))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "$.sweep.taus[7]: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("taus,at,bad", [([math.inf, "x"], 1, "'x'"), ([0.5, math.inf, True], 2, "True")])
    def test_infinity_passes_the_element_rule(self, tmp_path, monkeypatch, capsys, taus, at, bad):
        # the whole-grid check and the element rule agree that Infinity is a
        # tau, so the error names the element after it
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as info:
            parse_config(self._grid_config(taus))
        assert (info.value.path, info.value.message) == (f"$.sweep.taus[{at}]", f"expected a number, got {bad}")
        assert main(["sweep", "--config", str(write_config(tmp_path, self._grid_config(taus)))]) == 2
        assert f"$.sweep.taus[{at}]: expected a number, got {bad}" in capsys.readouterr().err

    def test_oversized_integer_tau_reads_as_inf(self, tmp_path, monkeypatch):
        # as in every other number field; its row is the row of Infinity
        monkeypatch.chdir(tmp_path)
        assert parse_config(self._grid_config([0.1, 10**400])).sweep_taus == (0.1, math.inf)
        rows = []
        for top in (10**400, math.inf):
            assert main(["sweep", "--config", str(write_config(tmp_path, self._grid_config([0.1, top])))]) == 0
            rows.append(read_report(tmp_path)["results"][0]["rows"])
        assert rows[0] == rows[1] and rows[0][1]["tau"] == "inf"

    def test_empty_grid(self, tmp_path, monkeypatch):
        # no taus: no rows, and a CSV of the header alone
        monkeypatch.chdir(tmp_path)
        payload = self._grid_config([])
        payload["output"]["formats"] = ["json", "csv"]
        assert main(["sweep", "--config", str(write_config(tmp_path, payload))]) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        report = json.loads(text)
        assert report["results"] == [{"task": "sweep", "status": "ok", "rows": []}]
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert '"rows": []' in text
        assert (tmp_path / "out" / "sweep.csv").read_text() == "tau,h_lower,h_upper,dim_lower,dim_upper,case_tag\n"

    def test_integer_taus_accepted(self):
        config = parse_config(self._grid_config([0, 0.5, 1, 2]))
        assert config.sweep_taus == (0.0, 0.5, 1.0, 2.0)
        assert all(type(t) is float for t in config.sweep_taus)

    def test_empty_grid_accepted(self):
        assert parse_config(self._grid_config([])).sweep_taus == ()

    @pytest.mark.parametrize(
        "taus,message",
        [
            ([0.0, 0.5, 0.5, 1.0], "tau grid must be sorted strictly increasing"),
            ([0.0, 1.0, 0.5], "tau grid must be sorted strictly increasing"),
            ([-0.5, 0.0, 0.5], "tau values must be nonnegative"),
            ([-0.5], "tau values must be nonnegative"),
            ([-(10**400), 0.5], "tau values must be nonnegative"),
            ([0.5, 10**400, math.inf], "tau grid must be sorted strictly increasing"),
        ],
    )
    def test_grid_order_and_sign_messages(self, tmp_path, monkeypatch, capsys, taus, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as info:
            parse_config(self._grid_config(taus))
        assert (info.value.path, info.value.message) == ("$.sweep.taus", message)
        cfg = write_config(tmp_path, self._grid_config(taus))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert f"$.sweep.taus: {message}" in capsys.readouterr().err


def test_parser_is_built_once_and_not_changed_by_parsing():
    parser = _build_parser()
    first = parser.parse_args(["sweep", "--config", "a.json", "--seedless", "--format", "csv", "--out", "o"])
    second = parser.parse_args(["bounds", "--config", "b.json"])
    assert (first.command, first.seedless, first.format, first.out) == ("sweep", True, "csv", "o")
    assert (second.command, second.config, second.seedless, second.format, second.out) == (
        "bounds", "b.json", False, None, None,
    )
    assert _build_parser() is parser
