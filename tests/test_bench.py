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


BETTER = {"wall_s": "lower", "ok_frac": "higher"}


def test_pairs_alternate_which_side_runs_first():
    order = []

    def run(side, seed):
        order.append((seed, side))
        return bench.last_json_line(_runner_stdout(True, wall_s=0.1 * (side + 1), ok_frac=1.0))

    tree, against = bench.run_pairs([7, 8, 9], run)
    assert order == [(7, 0), (7, 1), (8, 1), (8, 0), (9, 0), (9, 1)]
    assert [seed for seed, _ in tree] == [seed for seed, _ in against] == [7, 8, 9]
    assert [r["metrics"]["wall_s"]["value"] for _, r in against] == [0.2, 0.2, 0.2]
    order.clear()
    bench.run_pairs([7], run, start=3)  # the pair after three: REV first
    assert order == [(7, 1), (7, 0)]
    order.clear()
    (alone,) = bench.run_pairs([7, 8], run, sides=1)
    assert order == [(7, 0), (8, 0)] and len(alone) == 2


def test_record_against_pairs_the_traced_runs_at_the_benchmark_length(monkeypatch):
    calls = []
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for m in benchmark["end_to_end"]]

    def run_once(root, workload, seed, trace, seconds, env):
        calls.append((workload, seed, trace, "tree" if root == bench.ROOT else "rev", seconds))
        value = 0.1 if root == bench.ROOT else 0.2
        return bench.last_json_line(_runner_stdout(True, **dict.fromkeys(names, value)))

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "archive", lambda rev, dest: None)
    monkeypatch.setattr(bench, "check_same_benchmark", lambda tree, other, rev: None)
    monkeypatch.setattr(bench, "_workloads", lambda: ("w",))
    monkeypatch.setattr(bench, "cold_once", lambda root, command, config, out: 0.1 if root == bench.ROOT else 0.2)
    out = bench.record(37, [4, 5], against="REV")
    assert [c[1:4] for c in calls] == [
        (4, False, "tree"), (4, False, "rev"), (5, False, "rev"), (5, False, "tree"),
        (4, True, "tree"), (4, True, "rev"),  # the third pair: the tree first again
    ]
    assert {c[4] for c in calls} == {benchmark["run_seconds"]} == {out["settings"]["seconds"]}
    assert out["against"]["workloads"]["w"]["wins"]["wall_s"] == {"tree": 2, "against": 0, "pairs": 2}
    assert out["against"]["workloads"]["w"]["traced"]["seed"] == out["workloads"]["w"]["traced"]["seed"] == 4
    assert out["cold_process"]["commands"]["oracle"]["best_s"] == 0.1
    assert out["against"]["cold_process"]["commands"]["oracle"]["best_s"] == 0.2
    calls.clear()
    alone = bench.record(37, [4])
    assert alone["settings"]["seconds"] == bench.SECONDS and "against" not in alone
    assert [c[1:] for c in calls] == [(4, False, "tree", bench.SECONDS), (4, True, "tree", bench.SECONDS)]
    assert set(alone["cold_process"]["commands"]) == set(bench.COLD)


def test_cold_process_takes_the_best_of_alternating_runs(monkeypatch, tmp_path):
    configs = bench.golden_configs()
    assert sorted(configs) == ["cat_map", "oracle_sft60", "witness_golden_zeros"]
    assert configs["cat_map"]["system"] == {"kind": "matrix", "entries": [[2, 1], [1, 1]]}
    calls = []

    def cold_once(root, command, config, out):  # a stub: no CLI process starts
        calls.append((command, "tree" if root == bench.ROOT else "rev"))
        assert json.loads(config.read_text()) == configs[config.stem]
        return {bench.ROOT: 0.3, tmp_path: 0.5}[root] - 0.01 * len(calls)

    monkeypatch.setattr(bench, "cold_once", cold_once)
    tree, rev = bench.cold_process([bench.ROOT, tmp_path], tmp_path)
    assert [c[0] for c in calls] == [c for c in bench.COLD for _ in range(2 * bench.COLD_REPEATS)]
    assert [c[1] for c in calls[:4]] == ["tree", "rev", "rev", "tree"]
    assert tree["repeats"] == bench.COLD_REPEATS and list(tree["commands"]) == list(bench.COLD)
    # each side's last call of a command is its fastest
    n = 2 * bench.COLD_REPEATS
    assert tree["commands"]["analyze"] == {"config": "cat_map", "best_s": 0.3 - 0.01 * (n - 1)}
    assert rev["commands"]["witness"] == {"config": "witness_golden_zeros", "best_s": 0.5 - 0.01 * 6 * n}


def test_wins_count_pairs_in_the_better_direction():
    def side(*values):
        return [(seed, bench.last_json_line(_runner_stdout(True, wall_s=w, ok_frac=ok)))
                for seed, (w, ok) in enumerate(values, 1)]

    tree = side((0.08, 1.0), (0.09, 0.95), (0.10, 1.0), (0.07, 1.0))
    against = side((0.09, 0.95), (0.09, 1.0), (0.09, 1.0), (0.08, 1.0))
    assert bench.wins(tree, against, BETTER) == {
        "wall_s": {"tree": 2, "against": 1, "pairs": 4},  # the tie at seed 2 counts for neither
        "ok_frac": {"tree": 1, "against": 1, "pairs": 4},
    }
    with pytest.raises(bench.BenchError, match="seeds 1 and 2"):
        bench.wins(tree[:1], against[1:2], BETTER)


def _benchmark_tree(root: Path, run_py: str) -> Path:
    (root / "perfbench" / "tests").mkdir(parents=True)
    (root / "perfbench" / "__pycache__").mkdir()
    (root / "BENCHMARK.json").write_text('{"end_to_end": []}')
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "perfbench" / "tests" / "test_run.py").write_text("def test(): pass\n")
    (root / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(root.name.encode())
    return root


def test_a_different_benchmark_is_refused(tmp_path):
    tree = _benchmark_tree(tmp_path / "tree", "print(1)\n")
    same = _benchmark_tree(tmp_path / "same", "print(1)\n")
    bench.check_same_benchmark(tree, same, "REV")  # bytecode differs, which is not the benchmark
    (same / "perfbench" / ".hypothesis").mkdir()  # a test run's hidden folder
    (same / "perfbench" / ".hypothesis" / "db").write_text("x")
    (same / "src").mkdir()
    (same / "src" / "cli.py").write_text("changed = True\n")
    bench.check_same_benchmark(tree, same, "REV")
    other = _benchmark_tree(tmp_path / "other", "print(2)\n")
    with pytest.raises(bench.BenchError, match="REV: perfbench/run.py$"):
        bench.check_same_benchmark(tree, other, "REV")
    (same / "perfbench" / "extra.py").write_text("")
    (same / "BENCHMARK.json").write_text("{}")
    with pytest.raises(bench.BenchError, match="BENCHMARK.json, perfbench/extra.py"):
        bench.check_same_benchmark(tree, same, "REV")
