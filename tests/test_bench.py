"""bench.py's aggregation, on canned runner output: no benchmark is run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", REPO / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _runner_stdout(correct: bool, **metrics: float) -> str:
    """The tail of a runner's output: summary lines, a metric table, then one JSON object."""
    result = {
        "correct": correct,
        "attempted": 117,
        "failed": 0 if correct else 9,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }
    table = "".join(f"{name:32s} {value:.6g} s\n" for name, value in metrics.items())
    return f'# workload: "oracle_deep"\n# passes: 812\n{table}{json.dumps(result)}\n\n'


def test_last_line_is_the_result():
    result = bench.last_json_line(_runner_stdout(True, wall_s=0.0121, setup_s=0.061))
    assert result["correct"] is True
    assert result["metrics"]["wall_s"] == {"value": 0.0121, "unit": "s"}


@pytest.mark.parametrize("stdout", ["", "\n\n", "wall_s 0.1 s\n", '{"correct": true}\n', "[1, 2]\n"])
def test_a_line_that_is_not_a_result_is_refused(stdout):
    with pytest.raises(bench.BenchError):
        bench.last_json_line(stdout)


def test_median_and_quartiles_over_seeds():
    seeded = [
        (1, bench.last_json_line(_runner_stdout(True, wall_s=0.5, slowest_call_s=0.005))),
        (2, bench.last_json_line(_runner_stdout(True, wall_s=0.25, slowest_call_s=0.007))),
        (3, bench.last_json_line(_runner_stdout(False, wall_s=0.75, slowest_call_s=0.006))),
    ]
    traced = (1, bench.last_json_line(_runner_stdout(True, **{"oracle.bracket_s": 0.002, "config.share": 0.1})))
    record = bench.summarize(seeded, traced)
    # the inclusive quartiles of three values: halfway to the middle one
    assert record["end_to_end"]["wall_s"] == {"median": 0.5, "q1": 0.375, "q3": 0.625, "n": 3, "unit": "s"}
    assert record["end_to_end"]["slowest_call_s"]["median"] == 0.006
    assert [run["correct"] for run in record["runs"]] == [True, True, False]
    assert [run["seed"] for run in record["runs"]] == [1, 2, 3]
    assert record["runs"][2]["failed"] == 9
    assert record["traced"] == {"seed": 1, "correct": True, "layers": {"oracle.bracket_s": 0.002, "config.share": 0.1}}


def test_one_seed_is_its_own_spread():
    assert bench.spread([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1}


def test_runs_with_different_metrics_are_refused():
    seeded = [
        (1, bench.last_json_line(_runner_stdout(True, wall_s=0.014))),
        (2, bench.last_json_line(_runner_stdout(True, setup_s=0.06))),
    ]
    with pytest.raises(bench.BenchError, match="seed 2"):
        bench.summarize(seeded, seeded[0])


def test_machine_record():
    info = bench.machine()
    assert set(info) == {"cpu_count", "python", "numpy", "dont_write_bytecode"}
    assert info["cpu_count"] >= 1
