import json
import math
import time
from pathlib import Path

import pytest

from shrinktarget.cli import _build_parser, main, run
from shrinktarget.config import FORMATS, TASKS, ConfigError, load_config, parse_config
from shrinktarget.symbolic import NotMixingError, ShiftOfFiniteType, mixing_gap

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
        "oracle_params": {"depth": 40, "grid_step": 0.01, "stages": 12, "eta": 0.05},
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

    def test_oracle_grid_is_not_materialised(self, tmp_path, monkeypatch):
        # 1e11 grid points: the bracket bisects values computed on demand
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tau=0.3)
        assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 0
        default = read_report(tmp_path)["results"][0]["rows"][0]
        payload["oracle_params"]["grid_max"] = 1e9
        started = time.perf_counter()
        assert main(["oracle", "--config", str(write_config(tmp_path, payload))]) == 0
        assert time.perf_counter() - started < 1.0
        (row,) = read_report(tmp_path)["results"][0]["rows"]
        assert (row["bracket_lo"], row["bracket_hi"]) == (default["bracket_lo"], default["bracket_hi"]) == ("0.37", "0.38")

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
        payload = golden_oracle_config(tasks=("analyze", "bounds"))
        payload["system"]["transition"] = [[1, 1], [0, 1]]  # reducible
        report, all_ok, _ = run(parse_config(payload))
        assert not all_ok
        errors = [res["error"] for res in report["results"]]
        assert [res["status"] for res in report["results"]] == ["error", "error"]
        assert errors[0] == errors[1] and "reducible" in errors[0]

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

    @pytest.mark.parametrize(
        "command,params,message",
        [
            ("oracle", {"stages": 182}, "stages = 182: the stage lengths leave the float range"),
            ("oracle", {"stages": 0}, "stages must be >= 1"),
            ("witness", {"eta": 1e-310}, "eta = 1e-310 at tau = 0.5: block 1 pushes"),
            ("witness", {"eta": 1e308}, "eta = 1e+308 at tau = 0.5: block 1 pushes"),
            ("oracle", {"grid_step": 1e-300}, "grid_step = 1e-300 over [1e-300, 0.581212] gives more grid points"),
        ],
        ids=["stages_overflow", "stages_zero", "eta_tiny", "eta_huge", "grid_step_tiny"],
    )
    def test_oracle_params_out_of_range_are_error_rows(self, tmp_path, monkeypatch, capsys, command, params, message):
        # each passes validation, then asks for a layout or grid beyond the float or index range
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=(command,))
        payload["oracle_params"].update(params)
        parse_config(payload)
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 1
        (res,) = read_report(tmp_path)["results"]
        assert res["status"] == "error" and message in res["error"]
        assert "Traceback" not in capsys.readouterr().err

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
        assert "analyze needs a matrix or symbolic system" in read_report(tmp_path)["results"][0]["error"]

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
        with pytest.raises(NotMixingError) as exc:
            mixing_gap(ShiftOfFiniteType(tuple(map(tuple, flip))))
        assert res["error"] == str(exc.value) == "shift is periodic with period 2; use period_decomposition instead"

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

    def test_infinite_grid_max_rejected(self, tmp_path, monkeypatch, capsys):
        # JSON Infinity reads as a float; the grid size used to overflow in the task
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config()
        payload["oracle_params"]["grid_max"] = math.inf
        with pytest.raises(ConfigError) as exc:
            parse_config(payload)
        assert exc.value.path == "$.oracle_params.grid_max"
        cfg = write_config(tmp_path, payload)
        assert main(["oracle", "--config", str(cfg)]) == 2
        assert "$.oracle_params.grid_max: expected a finite number, got inf" in capsys.readouterr().err

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

    def test_schema_enums_match_config(self):
        props = json.loads(SCHEMA_PATH.read_text())["properties"]
        assert tuple(props["tasks"]["items"]["enum"]) == TASKS
        assert tuple(props["output"]["properties"]["formats"]["items"]["enum"]) == FORMATS

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


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
