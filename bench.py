"""Record the benchmark of this tree as ``BENCH_<pr>.json``.

Usage (from the repository root):

    python3 -B bench.py --pr 36
    python3 -B bench.py --pr 37 --against HEAD~1 --seeds 81 82 83 84 85 86 87 88 89 90

For each workload of ``perfbench/run.py`` this runs the frozen runner as a
subprocess for 2 s, once per seed 1, 2 and 3 (``--seeds``) with
``--trace 0`` and once more, at the first seed, with ``--trace 1``, and
parses the JSON object on the last line of its standard output.  The file holds, per
workload, the median, quartiles and count of every end-to-end metric over
the seeds, ``correct`` and the call counts of each run, and the per-layer
metrics of the traced run; beside them the CPU count, the Python and numpy
versions, whether bytecode caching is off, whether
``src/shrinktarget/__pycache__`` exists before and after, and the git
revision.  A perf claim cites the medians and quartiles from this file.

Under ``cold_process`` it holds, for each of the six CLI commands, the
best of 7 wall times of a fresh ``python3 -B -m shrinktarget.cli <command>
--config <cfg> --out <dir>`` with the tree's ``src`` on ``PYTHONPATH``:
``analyze``, ``bounds``, ``exact`` and ``sweep`` on the ``cat_map`` config
of ``tests/test_golden_reports.py``, ``oracle`` on ``oracle_sft60`` and
``witness`` on ``witness_golden_zeros``.  The default run takes about a
minute on two CPUs.

``--against REV`` also runs every seed on a ``git archive`` copy of REV,
in pairs with the tree, alternating which side runs first, and records
REV's side the same way under ``against``, with the count of pairs in
which each side is better on each end-to-end metric (ties count for
neither); the cold-process runs alternate the same way, REV's under
``against.cold_process``.  The two traced runs are one more pair, in the
order the next pair would take.  Each run then lasts ``run_seconds`` of
``BENCHMARK.json`` (25 s), so ten seeds take about 40 minutes.  It
refuses to run when ``BENCHMARK.json`` or ``perfbench/`` differ between
the two sides.

Bytecode: ``-B`` (or ``PYTHONDONTWRITEBYTECODE``) is passed on to the
runner and its workers, so a recording run leaves no ``.pyc`` under
``src/``; compiled bytecode makes a worker's set-up about twice as fast.
The cold CLI processes run with ``-B`` as well, so they compile ``src/``
afresh unless ``src/shrinktarget/__pycache__`` exists, which the record says.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent
RUNNER = ROOT / "perfbench" / "run.py"
PYCACHE = ROOT / "src" / "shrinktarget" / "__pycache__"
SEEDS = (1, 2, 3)
SECONDS = 2.0
# each CLI command timed in a fresh process, on a config of tests/test_golden_reports.py
COLD = {"analyze": "cat_map", "bounds": "cat_map", "exact": "cat_map", "sweep": "cat_map",
        "oracle": "oracle_sft60", "witness": "witness_golden_zeros"}
COLD_REPEATS = 7


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


def run_once(root: Path, workload: str, seed: int, trace: bool, seconds: float, env: dict) -> dict:
    """One run of the runner under ``root`` (the tree or a copy of REV)."""
    argv = [sys.executable, str(root / RUNNER.relative_to(ROOT)), "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "1" if trace else "0"]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: the runner exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return last_json_line(done.stdout)


def run_pairs(seeds, run, sides: int = 2, start: int = 0) -> tuple[list, ...]:
    """``run(side, seed)`` for each seed on each of ``sides`` sides (0 is the
    tree, 1 is REV), in side order at even pair indices and in reverse at odd
    ones, counting pairs from ``start``; each side's (seed, result) pairs."""
    runs: tuple[list, ...] = tuple([] for _ in range(sides))
    for i, seed in enumerate(seeds, start):
        for side in range(sides) if i % 2 == 0 else reversed(range(sides)):
            runs[side].append((seed, run(side, seed)))
    return runs


def wins(tree: list[tuple[int, dict]], against: list[tuple[int, dict]], better: dict[str, str]) -> dict:
    """Per end-to-end metric, the pairs (runs of one seed) in which each side
    is better; ``better`` maps a metric to "lower" or "higher".  Ties count
    for neither side."""
    out = {}
    for name, direction in better.items():
        counts = {"tree": 0, "against": 0, "pairs": len(tree)}
        for (seed, mine), (other_seed, theirs) in zip(tree, against, strict=True):
            if seed != other_seed:
                raise BenchError(f"pair of seeds {seed} and {other_seed}")
            x, y = mine["metrics"][name]["value"], theirs["metrics"][name]["value"]
            if x != y:
                counts["tree" if (x < y) == (direction == "lower") else "against"] += 1
        out[name] = counts
    return out


def frozen_files(root: Path) -> dict[str, bytes]:
    """The benchmark's own files under ``root``: ``BENCHMARK.json`` and
    ``perfbench/``, without bytecode and hidden folders."""
    paths = [root / "BENCHMARK.json", *(root / "perfbench").rglob("*")]
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in paths
        if path.is_file() and not any(part == "__pycache__" or part.startswith(".") for part in path.relative_to(root).parts)
    }


def check_same_benchmark(tree: Path, other: Path, rev: str) -> None:
    mine, theirs = frozen_files(tree), frozen_files(other)
    differ = sorted(name for name in mine.keys() | theirs.keys() if mine.get(name) != theirs.get(name))
    if differ:
        raise BenchError(f"the benchmark differs between the tree and {rev}: {', '.join(differ)}")


def archive(rev: str, dest: Path) -> None:
    """Extract the files of commit ``rev`` into ``dest`` by ``git archive``."""
    tar = subprocess.Popen(["tar", "-x", "-C", str(dest)], stdin=subprocess.PIPE)
    git = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=tar.stdin, stderr=subprocess.PIPE)
    tar.stdin.close()
    if tar.wait() != 0 or git.returncode != 0:
        raise BenchError(f"git archive {rev}: {git.stderr.decode().strip()[-300:]}")


def golden_configs() -> dict[str, dict]:
    """The config of each case that ``COLD`` names, from the golden test's table."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_golden_reports

    return {case: test_golden_reports.CASES[case][0] for case in set(COLD.values())}


def cold_once(root: Path, command: str, config: Path, out: Path) -> float:
    """The wall time of one fresh CLI process on ``root``'s ``src``."""
    argv = [sys.executable, "-B", "-m", "shrinktarget.cli", command, "--config", str(config), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=config.parent, env=env, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"{command} on {root}: the CLI exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return wall


def cold_process(roots: list[Path], tmp: Path) -> list[dict]:
    """Per side, the best of ``COLD_REPEATS`` wall times of each command in
    ``COLD``, the sides alternating which runs first."""
    for case, config in golden_configs().items():
        (tmp / f"{case}.json").write_text(json.dumps(config))
    best: list[dict] = [{} for _ in roots]
    for command, case in COLD.items():
        def run(side, _):
            return cold_once(roots[side], command, tmp / f"{case}.json", tmp / f"out{side}")

        for side, times in enumerate(run_pairs(range(COLD_REPEATS), run, len(roots))):
            best[side][command] = {"config": case, "best_s": min(t for _, t in times)}
        walls = ", ".join(f"{side[command]['best_s']:.4g} s" for side in best)
        print(f"{command} (cold, best of {COLD_REPEATS}): {walls}", file=sys.stderr)
    argv = "python3 -B -m shrinktarget.cli COMMAND --config CFG --out DIR, with that side's src on PYTHONPATH"
    return [{"repeats": COLD_REPEATS, "argv": argv, "commands": side} for side in best]


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


def record(pr: int, seeds: list[int], against: str | None = None) -> dict:
    env = dict(os.environ)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = SECONDS if against is None else benchmark["run_seconds"]
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"  # flags do not reach the runner's workers; the environment does
    out = {
        "pr": pr,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "machine": {**machine(), "src_pycache_before": PYCACHE.is_dir()},
        "settings": {"seeds": seeds, "seconds": seconds, "traced_seed": seeds[0],
                     "runner": "perfbench/run.py --workload W --seed S --seconds T --trace 0|1"},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        roots = [ROOT]
        if against is not None:
            roots.append(Path(tmp))
            archive(against, roots[1])
            check_same_benchmark(ROOT, roots[1], against)
            better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
            out["against"] = {"rev": against, "git_revision": _git("rev-parse", against), "workloads": {},
                              "pairs": "one run per seed on each side, alternating which side runs first; "
                                       "the traced runs are one more pair"}
        for name in _workloads():
            def run(trace: bool):
                return lambda side, seed: run_once(roots[side], name, seed, trace, seconds, env)

            runs = run_pairs(seeds, run(False), len(roots))
            traced = run_pairs(seeds[:1], run(True), len(roots), start=len(seeds))
            records = [summarize(side_runs, side_traced[0]) for side_runs, side_traced in zip(runs, traced)]
            out["workloads"][name] = records[0]
            wall = records[0]["end_to_end"]["wall_s"]
            line = f"{name}: wall_s median {wall['median']:.6g} [{wall['q1']:.6g}, {wall['q3']:.6g}]"
            if against is not None:
                out["against"]["workloads"][name] = {**records[1], "wins": wins(*runs, better)}
                theirs, won = records[1]["end_to_end"]["wall_s"], out["against"]["workloads"][name]["wins"]["wall_s"]
                line += f", {against} {theirs['median']:.6g} [{theirs['q1']:.6g}, {theirs['q3']:.6g}];"
                line += f" lower in {won['tree']} of {won['pairs']} pairs"
            print(line, file=sys.stderr)
        with tempfile.TemporaryDirectory(prefix="bench-cold-") as cold_tmp:
            cold = cold_process(roots, Path(cold_tmp))
        out["cold_process"] = cold[0]
        if against is not None:
            out["against"]["cold_process"] = cold[1]
    out["machine"]["src_pycache_after"] = PYCACHE.is_dir()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS), help="workload seeds (default 1 2 3)")
    parser.add_argument("--against", metavar="REV", help="also run a git archive copy of REV, in alternating pairs")
    args = parser.parse_args(argv)
    try:
        data = record(args.pr, args.seeds, args.against)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
