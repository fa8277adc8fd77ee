"""Self-tests of the benchmark: metric names, the checker, the traced run.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import spans
import worker
import workloads
from shrinktarget import cli

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def in_process(tmp_path: Path, workload: str, tracer=None) -> dict:
    """The benchmark pipeline without child processes, so tests can patch the CLI."""
    work = workloads.build(workload, 1, tiny=True)
    tmp_path.mkdir(exist_ok=True)
    calls = run._prepare(work, tmp_path, ROOT / "src")
    result = worker.run_passes(cli, calls, 0.0, tracer)
    worker.rescale(result, lambda a, b: b - a)
    result["peak_rss_mb"] = 1.0
    return run.evaluate(work, calls, result, [0.1], tracer.spans if tracer else None)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_named_metric(workload, trace):
    out = run.run(workload, seed=3, seconds=0.0, trace=trace, tiny=True)["result"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    assert out["correct"] is True
    assert out["attempted"] >= 1
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_corrupted_bound_raises_failed_and_max_ref_err(tmp_path, monkeypatch):
    clean = in_process(tmp_path / "clean", "tau_sweep")["result"]
    original = cli.bounds_one_sided_shift

    def corrupted(*args, **kwargs):
        rep = original(*args, **kwargs)
        bump = lambda x: None if x is None else x * 1.001  # noqa: E731
        return dataclasses.replace(rep, entropy_lower=bump(rep.entropy_lower), entropy_upper=bump(rep.entropy_upper))

    monkeypatch.setattr(cli, "bounds_one_sided_shift", corrupted)
    bad = in_process(tmp_path / "bad", "tau_sweep")["result"]
    assert clean["correct"] is True
    assert bad["correct"] is False
    assert bad["failed"] / bad["attempted"] > clean["failed"] / clean["attempted"]
    assert bad["metrics"]["max_ref_err"]["value"] > clean["metrics"]["max_ref_err"]["value"]
    assert bad["metrics"]["ok_frac"]["value"] < clean["metrics"]["ok_frac"]["value"]


def test_known_defect_excuses_only_its_fields(tmp_path, monkeypatch):
    clean = in_process(tmp_path / "clean", "analyze_slow_mixing")["result"]
    original = cli.mixing_gap
    monkeypatch.setattr(cli, "mixing_gap", lambda shift: original(shift) + 1)
    bad = in_process(tmp_path / "bad", "analyze_slow_mixing")
    assert clean["correct"] is True
    assert bad["result"]["correct"] is False
    chords = [f for f in bad["summary"]["failing_calls"] if f["system"].startswith("chord")]
    assert len(chords) == 2
    assert all(f["known_defect"] and f["unexpected_fields"] == ["mixing_gap"] for f in chords)
    assert bad["result"]["metrics"]["max_ref_err"]["value"] >= 1.0


def test_bracket_is_checked_against_the_exact_value():
    system = workloads.build("oracle_deep", 1, tiny=True).system("golden")
    ref = reference.reference_for(system)
    rates = system.config["rates"]
    rows = []
    for rate in rates:
        value = ref.h_top / (1.0 + rate["phi"]["tau"])
        lo = math.floor(value * 100) / 100 + 0.03  # three grid steps too high
        rows.append({"tau": repr(rate["phi"]["tau"]), "bracket_lo": repr(lo), "bracket_hi": repr(lo + 0.01),
                     "moran_estimate": "0.1", "shift_exact_value": repr(value),
                     "depth": system.config["oracle_params"]["depth"],
                     "stages": system.config["oracle_params"]["stages"]})
    report = {"config": system.config, "results": [{"task": "oracle", "status": "ok", "h_top": repr(ref.h_top), "rows": rows}]}
    issues = reference.check(system, "oracle", report, ref)
    assert [x.field for x in issues] == [f"rows[{i}].bracket" for i in range(len(rates))]
    assert all(0.02 < x.gap <= 0.03 + 1e-12 for x in issues)


def test_overhead_pairs_each_traced_pass_with_its_neighbours():
    times = [9.0, 1.1, 1.0, 1.1, 1.0, 1.1]  # a cold untraced pass, then traced and untraced in turn
    passes = [{"traced": i % 2 == 1, "scaled_s": t} for i, t in enumerate(times)]
    assert run.overhead(passes) == pytest.approx(0.1)


@pytest.mark.parametrize("workload", ["tau_sweep", "oracle_deep"])
def test_traced_self_times_stay_within_traced_wall(tmp_path, workload):
    tracer = spans.Tracer()
    out = in_process(tmp_path, workload, tracer)
    metrics = out["result"]["metrics"]
    assert tracer.spans, "no span was recorded"
    shares = [metrics[f"{layer}.share"]["value"] for layer in spans.MODULES]
    assert sum(shares) <= 1.0 + 1e-9
    assert min(shares) >= 0.0
    # tracing is removed again after each traced pass
    assert cli.main.__module__ == "shrinktarget.cli" and not hasattr(cli.main, "__wrapped__")


def test_known_defects_name_existing_calls():
    data = json.loads((ROOT / "perfbench" / "expectations.json").read_text())
    for d in data["known_defects"]:
        assert d["fields"] and all(run.field_kind(f) == f for f in d["fields"])
        for tiny in (False, True):
            work = workloads.build(d["workload"], 1, tiny)
            assert any(c.system == d["system"] and c.command == d["command"] for c in work.calls)


def test_reference_values():
    golden = reference.perron_root(workloads.GOLDEN)
    assert abs(golden - (1 + reference.mpmath.sqrt(5)) / 2) < 1e-30
    assert abs(reference.perron_root(workloads.sft60()) - 48) < 1e-30
    assert reference.mixing_gap(workloads.cycle_with_chord(16)) == 15**2 + 1
    jordan = reference.matrix_ref(workloads.jordan(2, 3))
    assert [(round(m, 12), k, nonreal) for m, k, nonreal in jordan.clusters] == [(2.0, 3, False)]
    cat = reference.matrix_ref(workloads.CAT)
    assert cat.sharp is not None and abs(cat.h_top - 2 * math.log((1 + 5**0.5) / 2)) < 1e-15


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tau_sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
