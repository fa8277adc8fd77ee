"""Benchmark of the shrinktarget CLI: four seeded workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload tau_sweep --seed 1 --seconds 25 --trace 0

One caller in one child process makes the workload's CLI calls
(``shrinktarget.cli.main``) one after another, pass after pass, for about
``--seconds`` seconds: a closed loop with a single client.  Every report is
then checked against references computed without shrinktarget
(``reference.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Times are scaled to a reference machine speed (see
``worker.py``).  Known defects of the program (``expectations.json``) count
as failed calls but do not make the run incorrect; a known defect excuses
only the issue fields it is listed with, and any other failed check makes
the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5
RESOLUTION = 1e-12  # max_ref_err when every number is within its printed digits
# one BLAS thread here and in every worker, which inherits the environment
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _prepare(work: workloads.Workload, tmp: Path, src: Path) -> list[dict]:
    calls = []
    for s in work.systems:
        (tmp / f"{s.name}.json").write_text(json.dumps(s.config))
    for c in work.calls:
        out = tmp / "out" / c.system / c.command
        out.mkdir(parents=True)
        calls.append({"system": c.system, "command": c.command, "config": str(tmp / f"{c.system}.json"), "out": str(out)})
    spec = {"src": str(src), "configs": [str(tmp / f"{s.name}.json") for s in work.systems], "calls": calls}
    (tmp / "calls.json").write_text(json.dumps(spec))
    return calls


def _spawn(tmp: Path, seconds: float, trace: bool, setup_only: bool) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its 'ready' line; returns (scaled set-up seconds, process)."""
    argv = [sys.executable, str(HERE / "worker.py"), str(tmp), str(seconds), "1" if trace else "0"]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=tmp)
    line = proc.stdout.readline().split()
    if not line or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return float(line[1]), proc


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {timeout:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def _run_worker(tmp: Path, seconds: float, trace: bool) -> tuple[list[float], dict]:
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        setup, proc = _spawn(tmp, seconds, trace, setup_only=True)
        _finish(proc, 60)
        setups.append(setup)
    setup, proc = _spawn(tmp, seconds, trace, setup_only=False)
    setups.append(setup)
    _finish(proc, seconds + 120)
    return setups, json.loads((tmp / "result.json").read_text())


def _known_defects(workload: str) -> dict[tuple[str, str], set[str]]:
    """(system, command) -> the issue fields (indices folded to ``[]``) its
    known defect produces."""
    data = json.loads((HERE / "expectations.json").read_text())
    return {
        (d["system"], d["command"]): set(d["fields"])
        for d in data["known_defects"]
        if d["workload"] == workload
    }


def field_kind(field: str) -> str:
    """An issue field with its indices folded: ``rows[12].h_lower`` -> ``rows[].h_lower``."""
    return re.sub(r"\[\d+\]", "[]", field)


def _check_calls(work: workloads.Workload, calls: list[dict]) -> tuple[list[list], dict]:
    """Reference issues of each call's last report, and oracle-layer counts."""
    import reference

    refs = {s.name: reference.reference_for(s) for s in work.systems}
    issues = []
    stats = {"prefix_symbols": 0, "planned": 0, "confirmed": 0, "brackets": 0, "brackets_exact": 0}
    for c in calls:
        report = json.loads((Path(c["out"]) / "report.json").read_text())
        system = work.system(c["system"])
        issues.append(reference.check(system, c["command"], report, refs[c["system"]]))
        if c["command"] in ("oracle", "witness") and report["results"][0].get("status") == "ok":
            reference.oracle_stats(system, report["results"][0], refs[c["system"]], stats)
    return issues, stats


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    src = ROOT / "src"
    if not (src / "shrinktarget" / "cli.py").is_file():
        raise BenchError(f"no shrinktarget sources under {src}")
    os.environ.update(BLAS_ENV)
    work = workloads.build(workload, seed, tiny)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    try:
        calls = _prepare(work, tmp, src)
        setups, result = _run_worker(tmp, seconds, trace)
        spans = json.loads((tmp / "spans.json").read_text()) if trace else None
        out = evaluate(work, calls, result, setups, spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["summary"]["seed"] = seed
    return out


def evaluate(work: workloads.Workload, calls: list[dict], result: dict, setups: list[float], spans) -> dict:
    """Check the reports the calls left behind and compute the metrics: the
    end-to-end ones, or with ``spans`` (a traced run) the per-layer ones."""
    issues, stats = _check_calls(work, calls)
    bytes_per_pass = sum(p.stat().st_size for c in calls for p in Path(c["out"]).iterdir())
    passes = result["passes"]
    known = _known_defects(work.name)
    failing = []  # (system, command, [(field, message)], unexpected fields)
    for i, c in enumerate(calls):
        rcs = {p["calls"][i][0] for p in passes}
        reasons = [("exit", f"exit {rc}") for rc in sorted(rcs) if rc != 0]
        reasons += [(x.field, x.message) for x in issues[i]]
        if reasons:
            excused = known.get((c["system"], c["command"]), set())
            unexpected = sorted({field_kind(f) for f, _ in reasons} - excused)
            failing.append((c["system"], c["command"], reasons, unexpected))
    untraced = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["scaled_s"] for p in untraced)
    attempted = len(passes) * len(calls)
    failed = len(passes) * len(failing)
    gaps = [x.gap for call_issues in issues for x in call_issues if x.gap is not None]
    correct = result["reports_stable"] and not any(f[3] for f in failing)

    summary = {
        "workload": work.name,
        "passes": len(untraced),
        "calls_per_pass": len(calls),
        "median_call_s": {
            f"{c['system']}/{c['command']}": round(statistics.median(p["calls"][i][2] for p in untraced), 4)
            for i, c in enumerate(calls)
        },
        "failed_frac": failed / attempted,
        "failing_calls": [
            {
                "system": s,
                "command": cmd,
                "known_defect": (s, cmd) in known,
                "first_issue": ": ".join(r[0]),
                "issues": len(r),
                "unexpected_fields": u,
            }
            for s, cmd, r, u in failing
        ],
        "reports_stable": result["reports_stable"],
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
    }
    if spans is not None:
        import spans as spanlib

        traced = [p for p in passes if p["traced"]]
        kinds = [work.system(c["system"]).kind for c in calls]
        metrics = spanlib.layer_metrics(
            spanlib.aggregate(spans),
            len(traced),
            statistics.mean(p["scaled_s"] for p in traced),
            shift_calls=sum(k != "matrix" for k in kinds),
            matrix_calls=kinds.count("matrix"),
        )
        metrics["oracle.prefix_symbols"] = stats["prefix_symbols"]
        metrics["oracle.confirmed_hit_ratio"] = stats["confirmed"] / stats["planned"] if stats["planned"] else 0.0
        metrics["oracle.bracket_exact_ratio"] = stats["brackets_exact"] / stats["brackets"] if stats["brackets"] else 0.0
        metrics["cli.bytes_written"] = bytes_per_pass
        metrics["trace.overhead_frac"] = overhead(passes)
        summary["traced_passes"] = len(traced)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "slowest_call_s": statistics.median(max(r[2] for r in p["calls"]) for p in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "max_ref_err": max([RESOLUTION] + gaps),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if spans is not None else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "summary": summary,
        "result": {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        },
    }


def overhead(passes: list[dict]) -> float:
    """Median over traced passes of (traced time / mean of the neighbouring
    untraced passes) - 1.  The first pass runs cold and is left out."""
    ratios = []
    for i, p in enumerate(passes):
        if not p["traced"]:
            continue
        near = [q["scaled_s"] for q in passes[max(i - 1, 1) : i + 2] if not q["traced"]]
        if near:
            ratios.append(p["scaled_s"] / statistics.mean(near))
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size (self-tests)")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for key, value in out["summary"].items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in out["result"]["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
