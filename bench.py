"""Record the benchmark of this tree as ``BENCH_<pr>.json``.

Usage (from the repository root):

    python3 -B bench.py --pr 36

For each workload of ``perfbench/run.py`` this runs the frozen runner as a
subprocess for 2 s, once per seed 1, 2 and 3 with ``--trace 0`` and once
more, at seed 1, with ``--trace 1``, and parses the JSON
object on the last line of its standard output.  The file holds, per
workload, the median, quartiles and count of every end-to-end metric over
the seeds, ``correct`` and the call counts of each run, and the per-layer
metrics of the traced run; beside them the CPU count, the Python and numpy
versions, whether bytecode caching is off, whether
``src/shrinktarget/__pycache__`` exists before and after, and the git
revision.  A perf claim cites the medians and quartiles from this file.
The default run takes about a minute on two CPUs.

Bytecode: ``-B`` (or ``PYTHONDONTWRITEBYTECODE``) is passed on to the
runner and its workers, so a recording run leaves no ``.pyc`` under
``src/``; compiled bytecode makes a worker's set-up about twice as fast.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent
RUNNER = ROOT / "perfbench" / "run.py"
PYCACHE = ROOT / "src" / "shrinktarget" / "__pycache__"
SEEDS = (1, 2, 3)
SECONDS = 2.0


class BenchError(RuntimeError):
    pass


def last_json_line(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a runner's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("the runner printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"the runner's last line is not JSON: {lines[-1][:80]!r}") from exc
    if not isinstance(result, dict) or "metrics" not in result or "correct" not in result:
        raise BenchError("the runner's last line has no 'correct' and 'metrics'")
    return result


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method: the quartiles of n values lie
    between them) and count of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(seeded: list[tuple[int, dict]], traced: tuple[int, dict]) -> dict:
    """One workload's record from its runs: (seed, result) pairs of the
    untraced runs and the traced one, each a runner's last-line object."""
    names = list(seeded[0][1]["metrics"])
    for seed, result in seeded:
        if list(result["metrics"]) != names:
            raise BenchError(f"seed {seed} reports metrics {sorted(result['metrics'])}, not {sorted(names)}")
    end_to_end = {}
    for name in names:
        values = [result["metrics"][name]["value"] for _, result in seeded]
        end_to_end[name] = {**spread(values), "unit": seeded[0][1]["metrics"][name]["unit"]}
    seed, result = traced
    return {
        "end_to_end": end_to_end,
        "runs": [
            {"seed": s, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"]} for s, r in seeded
        ],
        "traced": {
            "seed": seed,
            "correct": result["correct"],
            "layers": {name: m["value"] for name, m in result["metrics"].items()},
        },
    }


def run_once(workload: str, seed: int, trace: bool, env: dict) -> dict:
    argv = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
            "--seconds", f"{SECONDS:g}", "--trace", "1" if trace else "0"]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: the runner exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return last_json_line(done.stdout)


def _workloads() -> tuple[str, ...]:
    sys.path.insert(0, str(RUNNER.parent))
    import workloads

    return tuple(workloads.WORKLOADS)


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "dont_write_bytecode": sys.dont_write_bytecode,
    }


def record(pr: int) -> dict:
    env = dict(os.environ)
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"  # flags do not reach the runner's workers; the environment does
    out = {
        "pr": pr,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "machine": {**machine(), "src_pycache_before": PYCACHE.is_dir()},
        "settings": {"seeds": list(SEEDS), "seconds": SECONDS, "traced_seed": SEEDS[0],
                     "runner": "perfbench/run.py --workload W --seed S --seconds T --trace 0|1"},
        "workloads": {},
    }
    for name in _workloads():
        seeded = [(seed, run_once(name, seed, False, env)) for seed in SEEDS]
        traced = (SEEDS[0], run_once(name, SEEDS[0], True, env))
        out["workloads"][name] = summarize(seeded, traced)
        wall = out["workloads"][name]["end_to_end"]["wall_s"]
        print(f"{name}: wall_s median {wall['median']:.6g} [{wall['q1']:.6g}, {wall['q3']:.6g}]", file=sys.stderr)
    out["machine"]["src_pycache_after"] = PYCACHE.is_dir()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    args = parser.parse_args(argv)
    try:
        data = record(args.pr)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
