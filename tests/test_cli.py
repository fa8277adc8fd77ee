import json
import math
from pathlib import Path

import pytest

from shrinktarget.cli import main, run
from shrinktarget.config import FORMATS, TASKS, ConfigError, load_config, parse_config

LN2 = math.log(2.0)
CAT_LOG_UNSTABLE = math.log((3.0 + math.sqrt(5.0)) / 2.0)
GOLDEN_ENTROPY = math.log((1.0 + math.sqrt(5.0)) / 2.0)


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

    def test_command_outside_config_tasks_checks_system_kind(self, tmp_path, monkeypatch):
        # the CLI command need not be among the config's tasks, so the
        # executors themselves reject systems they have no theorem for
        monkeypatch.chdir(tmp_path)
        payload = golden_oracle_config(tasks=("bounds",))
        cfg = write_config(tmp_path, payload)
        assert main(["exact", "--config", str(cfg)]) == 1
        assert "requires a matrix system" in read_report(tmp_path)["results"][0]["error"]
        payload["system"] = {"kind": "profile", "lambda1": 1.0, "lambda2": 1.0, "ln_l2": 1.0, "h_top": LN2}
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

    def test_schema_enums_match_config(self):
        schema_path = Path(__file__).resolve().parents[1] / "docs" / "config_schema.json"
        props = json.loads(schema_path.read_text())["properties"]
        assert tuple(props["tasks"]["items"]["enum"]) == TASKS
        assert tuple(props["output"]["properties"]["formats"]["items"]["enum"]) == FORMATS

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
