"""Child process of the benchmark: one workload, one process, closed loop.

Usage: python3 worker.py WORKDIR SECONDS TRACE [--setup-only]

WORKDIR holds ``calls.json`` (written by run.py).  The worker imports
``shrinktarget.cli``, loads every generated config, prints ``ready`` with the
set-up time, then makes the CLI calls one after another, pass after pass,
until the next pass would overrun SECONDS.  With TRACE=1 untraced and traced
passes alternate.  Results go to ``WORKDIR/result.json`` and, when traced,
spans to ``WORKDIR/spans.json``.

Untraced runs time everything twice: raw wall time, and wall time scaled to
a fixed machine speed.  The host this was written on runs the same code up
to 1.8x slower from one second to the next (no steal time is reported, so
the slowdown is inside the CPU the guest is given), which no median over a
run removes.  ``SpeedProbe`` therefore times a fixed probe every 5 ms from a
SIGALRM handler: a 1000-step Python loop, plus, once set-up is over, a
48x48 uint8 matrix product (the program mixes interpreted loops with small
numpy kernels, and the two slow down by different factors).  Each stretch
of work between two probes is scaled by (reference duration / that probe's
duration) and the probes' own time is left out.  The reference durations
are the probes' durations on the unloaded 2-vCPU Xeon the benchmark was
written on, so scaled seconds read as seconds there.  On that host the
scaling cut the run-to-run spread of single calls from 11-28% to 1-5%.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 3
PROBE_INTERVAL_S = 0.005
REF_LOOP_S = 70e-6  # reference duration of the Python loop
REF_BOTH_S = 140e-6  # reference duration of the loop plus the matrix product


def _probe_loop() -> int:
    s = 0
    for i in range(1000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Machine speed sampled every PROBE_INTERVAL_S seconds of wall time."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.factors: list[float] = []  # reference duration / measured duration
        self.matrix = None  # set once numpy is imported

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        _probe_loop()
        ref = REF_LOOP_S
        if self.matrix is not None:
            (self.matrix @ self.matrix) > 0
            ref = REF_BOTH_S
        took = time.perf_counter() - t
        self.starts.append(t)
        self.durations.append(took)
        self.factors.append(ref / took)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of work in [a, b) at the reference speed, probes excluded."""
        if not self.starts:
            return b - a
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        if i == j:  # no probe inside: the nearest one before (or after)
            return (b - a) * self.factors[max(i - 1, 0)]
        total, cursor = 0.0, a
        for k in range(i, j):
            total += (self.starts[k] - cursor) * self.factors[k]
            cursor = min(self.starts[k] + self.durations[k], b)
        return total + (b - cursor) * self.factors[j - 1]


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_passes(cli, calls: list[dict], seconds: float, tracer=None) -> dict:
    """Make every call, pass after pass, until the next pass would end after
    ``seconds`` (at least MIN_PASSES passes); with a tracer every second pass
    is traced.  Reports must be byte-identical in every pass."""
    passes = []
    digests: list[str] | None = None
    stable = True
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        records = []
        t_pass = time.perf_counter()
        for call in calls:
            argv_call = [call["command"], "--config", call["config"], "--out", call["out"]]
            err = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv_call)
            records.append([rc, t0, time.perf_counter(), err.getvalue()[-2000:] if rc else ""])
        t_end = time.perf_counter()
        if traced:
            tracer.uninstall()
        passes.append({"start": t_pass, "end": t_end, "wall_s": t_end - t_pass, "traced": traced, "calls": records})
        now = [_digest(Path(c["out"])) for c in calls]
        if digests is None:
            digests = now
        elif now != digests:
            stable = False
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    return {"passes": passes, "reports_stable": stable}


def rescale(result: dict, scaled) -> None:
    """Replace the pass and call time stamps by raw and scaled durations."""
    for p in result["passes"]:
        start, end = p.pop("start"), p.pop("end")
        p["scaled_s"] = scaled(start, end)
        p["calls"] = [[rc, b - a, scaled(a, b), err] for rc, a, b, err in p["calls"]]


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    probe = SpeedProbe()
    if not trace:  # probe time would land in the spans' self time
        probe.start()
    spec = json.loads((workdir / "calls.json").read_text())
    sys.path.insert(0, spec["src"])

    from shrinktarget import cli, config

    for path in spec["configs"]:
        config.load_config(path)
    ready = time.perf_counter()
    print(f"ready {probe.scaled(started, ready)!r} {ready - started!r}", flush=True)
    if "--setup-only" in argv:
        probe.stop()
        return 0

    import numpy

    from spans import Tracer

    probe.matrix = (numpy.arange(48 * 48).reshape(48, 48) % 3 == 0).astype(numpy.uint8)

    tracer = Tracer() if trace else None
    result = run_passes(cli, spec["calls"], seconds, tracer)
    probe.stop()
    rescale(result, probe.scaled)
    if tracer is not None:
        tracer.write(workdir / "spans.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
