"""Batch front end: config in, deterministic machine-readable reports out.

Commands (one per task, plus ``sweep``): analyze, bounds, exact, oracle,
witness, sweep.  Each reads a JSON config, executes, and writes a report
into the output directory:

* ``report.json`` - always (when "json" is among the formats);
* ``sweep.csv`` / ``bounds.csv`` - tabular rows (when "csv" is requested).

Every real number in a report is rendered as a decimal string with 12
significant digits ('.' separator, LF line endings), so reruns of the same
config are byte-identical.  Wall-clock timings go to stderr only, never into
report files.  Nothing in the pipeline draws randomness; ``--seedless``
records that assertion in the report.

Exit codes: 0 all requested tasks produced results (rows whose hypotheses
fail are still results), 1 a task errored, 2 validation/IO errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from . import __version__
from .bounds import (
    BoundReport,
    HypothesisViolatedError,
    bounds_expanding,
    bounds_general_profile,
    bounds_hyperbolic_set,
    bounds_one_sided_shift,
    bounds_two_sided_shift,
    covering_bounds,
)
from .config import ConfigError, ExperimentConfig, RateTriple, SystemSpec, load_config
from .oracle import (
    LimsupCylinderScheme,
    OracleError,
    bracket_critical_exponent,
    construct_witness,
    moran_dimension,
    plan_witness,
    verify_witness,
)
from .rates import (
    AllTimes,
    Exponential,
    RateError,
    RateExponents,
    RateFunction,
    ShiftTarget,
    family_tau,
    restrict_rate,
    tau_exponents,
)
from .symbolic import (
    PeriodDecomposition,
    ShiftOfFiniteType,
    SoficPresentation,
    SymbolicError,
    digraph_period,
    index_set,
    indices_intersect,
    mixing_gap,
    period_decomposition,
    sft_entropy,
    sofic_entropy,
)
from .systems import (
    HyperbolicityProfile,
    IntegerMatrixSystem,
    SpectralProfile,
    SpectrumError,
    analyze_matrix,
    crude_profile_from_matrix,
    entropy_toral,
    sharp_profile_from_matrix,
)

SCHEMA_VERSION = 1
ENV_OUT = "SHRINKTARGET_OUT"

TaskError = (
    ConfigError,
    HypothesisViolatedError,
    OracleError,
    RateError,
    SpectrumError,
    SymbolicError,
    ValueError,
)


# ---------------------------------------------------------------------------
# Deterministic number formatting
# ---------------------------------------------------------------------------


def fmt(x: float | None) -> str | None:
    """Real values become 12-significant-digit decimal strings; None stays."""
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def _report_row(rule: str, rep: BoundReport, **extra: Any) -> dict:
    row = {
        "rule": rule,
        "case": rep.case_tag.value,
        "h_lower": fmt(rep.entropy_lower),
        "h_upper": fmt(rep.entropy_upper),
        "dim_lower": fmt(rep.dim_lower),
        "dim_upper": fmt(rep.dim_upper),
        "assumptions": [[name, ok] for name, ok in rep.assumptions],
        "notes": list(rep.notes),
    }
    row.update(extra)
    return row


# ---------------------------------------------------------------------------
# Rate plumbing shared by executors
# ---------------------------------------------------------------------------


def effective_exponents(triple: RateTriple) -> RateExponents:
    """Per-triple exponents, each side taken from the set it is valid for.

    Lower bounds consult the rate only at times in S, so tau_upper comes from
    the rate restricted to S (equal to phi on S, 1 off S) - never larger than
    the plain tau_upper.  Upper bounds come from embedding the hit set into
    the every-time hit set of phi itself, so tau_lower is the rate's own
    liminf exponent.  The two stay ordered: liminf over all n is at most the
    limsup over the subsequence S.
    """
    if isinstance(triple.phi, RateExponents):
        return triple.phi
    own = tau_exponents(triple.phi)
    restricted = tau_exponents(restrict_rate(triple.phi, triple.time_set))
    return RateExponents(restricted.tau_upper, own.tau_lower)


def family_exponents(config: ExperimentConfig) -> RateExponents:
    return family_tau([effective_exponents(t) for t in config.rates])


def _all_naturals(config: ExperimentConfig) -> bool:
    return all(isinstance(t.time_set, AllTimes) for t in config.rates)


def _index_data(config: ExperimentConfig, decomp: PeriodDecomposition):
    """Index sets per rate triple and their common difference (or None)."""
    if decomp.period == 1:
        return None, None
    sets = []
    for triple in config.rates:
        assert isinstance(triple.target, ShiftTarget)
        sets.append(index_set(triple.target, triple.time_set, decomp))
    return sets, indices_intersect(sets)


# ---------------------------------------------------------------------------
# System analysis and bound dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemFacts:
    """What the bound theorems read of one system, analysed once per run().

    Matrices: the system, its spectrum, exact determinant and entropy, the
    crude profile and either the sharp profile or ``sharp_error``, the reason
    it does not apply (profiles and entropy only for hyperbolic spectra).
    SFTs: the period decomposition, entropy and sidedness.  Sofic shifts:
    the period, entropy and sidedness.  ``profile`` systems: the profile.
    """

    kind: str
    matrix: IntegerMatrixSystem | None = None
    spectrum: SpectralProfile | None = None
    det: int | None = None
    crude: HyperbolicityProfile | None = None
    sharp: HyperbolicityProfile | None = None
    sharp_error: str | None = None
    decomposition: PeriodDecomposition | None = None
    period: int | None = None
    h_top: float | None = None
    sided: str | None = None
    profile: HyperbolicityProfile | None = None


def system_facts(system: SystemSpec, kind: str) -> SystemFacts:
    """Analyse ``system`` (of config kind ``kind``) once."""
    if kind == "matrix":
        assert isinstance(system, IntegerMatrixSystem)
        p = analyze_matrix(system)
        if not p.is_hyperbolic:
            return SystemFacts(kind, matrix=system, spectrum=p, det=system.det)
        sharp = sharp_error = None
        try:
            sharp = sharp_profile_from_matrix(system, p)
        except SpectrumError as exc:
            sharp_error = str(exc)
        return SystemFacts(
            kind, matrix=system, spectrum=p, det=system.det,
            crude=crude_profile_from_matrix(system, p), sharp=sharp,
            sharp_error=sharp_error, h_top=entropy_toral(p),
        )
    if kind == "sft":
        assert isinstance(system, ShiftOfFiniteType)
        decomp = period_decomposition(system)
        return SystemFacts(
            kind, decomposition=decomp, period=decomp.period,
            h_top=sft_entropy(system), sided=system.sided,
        )
    if kind == "sofic":
        assert isinstance(system, SoficPresentation)
        period = digraph_period(system.adjacency()).period
        return SystemFacts(kind, period=period, h_top=sofic_entropy(system), sided=system.sided)
    assert isinstance(system, HyperbolicityProfile)
    return SystemFacts(kind, profile=system)


@dataclass(frozen=True)
class EvalContext:
    """The per-task inputs of ``evaluate`` beyond the system and tau.

    ``task`` is "bounds", "exact" or "sweep"; ``naturals`` says every time
    set is all of N; ``index_ok`` says whether the index difference sets of
    a non-mixing shift intersect (None: not applicable).
    """

    task: str
    naturals: bool = True
    index_ok: bool | None = None


def _context(facts: SystemFacts, task: str, naturals: bool = True, index_ok: bool | None = None) -> EvalContext:
    if facts.kind == "sofic" and facts.period > 1:
        # no index sets are derived from a presentation: a periodic sofic
        # shift gets neither the S = N substitution nor an index intersection
        return EvalContext(task, naturals=False, index_ok=False)
    return EvalContext(task, naturals, index_ok)


_COMPLEX_PAIR_NOTE = (
    "a modulus cluster contains complex eigenvalues; exactness is "
    "stated for two distinct eigenvalues and is reported by modulus"
)


def evaluate(facts: SystemFacts, tau: RateExponents, context: EvalContext) -> tuple[tuple[str, BoundReport], ...]:
    """The (rule, report) rows the theorems give for ``facts`` at ``tau``.

    Shifts and profiles get the same rows for every task.  A matrix has one
    theorem path: ``bounds_expanding`` if it is expanding, else
    ``bounds_hyperbolic_set``.  "bounds" runs it on the crude profile and,
    when there is one, on the sharp profile.  "exact" and "sweep" run it on
    the sharp profile alone; the sharp profile exists exactly when the
    matrix is expanding or has two moduli straddling 1 with |det| = 1, and
    its Lipschitz constants equal its exponents, so the sandwich is the
    exact value.  Without a sharp profile "exact" fails and "sweep" falls
    back to the crude sandwich.
    """
    if facts.kind in ("sft", "sofic"):
        fn = bounds_one_sided_shift if facts.sided == "one" else bounds_two_sided_shift
        rep = fn(
            facts.period == 1, facts.h_top, tau,
            time_sets_all_naturals=context.naturals, index_ok=context.index_ok,
        )
        return ((f"{facts.sided}_sided_shift", rep),)
    if facts.kind == "profile":
        return (("general_profile_sandwich", bounds_general_profile(facts.profile, tau)),)

    p = facts.spectrum
    fn = bounds_expanding if p.is_expanding else bounds_hyperbolic_set
    if context.task != "bounds" and facts.sharp is not None:
        rep = fn(facts.sharp, tau, tau_lower_substitution=context.naturals)
        if p.is_expanding:
            return (("expanding_torus_exact", rep),)
        if p.has_complex_pair:
            rep = replace(rep, notes=rep.notes + (_COMPLEX_PAIR_NOTE,))
        return (("toral_automorphism_exact", rep),)
    if context.task == "exact":
        why = f": {facts.sharp_error}" if facts.sharp_error else ""
        raise HypothesisViolatedError(
            f"no exact theorem applies to this spectrum{why}; "
            "run the 'bounds' task for sandwich estimates"
        )
    if not p.is_hyperbolic:
        raise SpectrumError("spectrum has a modulus at 1; no bounds apply")
    profiles = [("crude", facts.crude)]
    if context.task == "bounds" and facts.sharp is not None:
        profiles.append(("sharp", facts.sharp))
    return tuple(
        (f"{label}_sandwich", fn(prof, tau, tau_lower_substitution=context.naturals))
        for label, prof in profiles
    )


def sweep_rows(facts: SystemFacts, taus) -> list[dict]:
    """One sweep row per tau, with tau_upper = tau_lower = tau and S = N."""
    context = _context(facts, "sweep")
    rows = []
    for t in taus:
        ((_, rep),) = evaluate(facts, RateExponents(t, t), context)
        rows.append(
            {
                "tau": fmt(t),
                "h_lower": fmt(rep.entropy_lower),
                "h_upper": fmt(rep.entropy_upper),
                "dim_lower": fmt(rep.dim_lower),
                "dim_upper": fmt(rep.dim_upper),
                "case_tag": rep.case_tag.value,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Task executors
# ---------------------------------------------------------------------------


def _run_analyze(config: ExperimentConfig, facts: SystemFacts) -> dict:
    if facts.kind == "matrix":
        m, p = facts.matrix, facts.spectrum
        out: dict[str, Any] = {
            "dim": p.dim,
            "determinant": facts.det,
            "kind": m.kind,
            "clusters": [
                {"modulus": fmt(c.modulus), "multiplicity": c.multiplicity, "has_nonreal": c.has_nonreal}
                for c in p.clusters
            ],
            "d_s": p.d_s,
            "d_u": p.d_u,
            "is_hyperbolic": p.is_hyperbolic,
            "is_expanding": p.is_expanding,
            "lambda_s_mod": fmt(p.lambda_s_mod),
            "lambda_u_mod": fmt(p.lambda_u_mod),
        }
        if p.has_complex_pair:
            out["notes"] = ["a modulus cluster contains complex eigenvalue pairs"]
        if p.is_hyperbolic:
            out["h_top"] = fmt(facts.h_top)
            out["crude_profile"] = _profile_dict(facts.crude)
            if facts.sharp is not None:
                out["sharp_profile"] = _profile_dict(facts.sharp)
            else:
                out["sharp_profile"] = None
                out.setdefault("notes", []).append(f"no sharp profile: {facts.sharp_error}")
        return out
    if facts.kind == "sft":
        shift = config.system
        out = {
            "alphabet_size": shift.alphabet_size,
            "sided": facts.sided,
            "h_top": fmt(facts.h_top),
            "period": facts.period,
            "classes": list(facts.decomposition.class_of),
        }
        if facts.period == 1:
            out["mixing_gap"] = mixing_gap(shift)
        return out
    if facts.kind == "sofic":
        pres = config.system
        return {
            "states": pres.states,
            "labels": list(pres.labels),
            "sided": facts.sided,
            "h_top": fmt(facts.h_top),
            "period": facts.period,
        }
    raise ConfigError("$.tasks", "analyze needs a matrix or symbolic system")


def _profile_dict(prof) -> dict:
    return {
        "lambda1": fmt(prof.lambda1),
        "lambda2": fmt(prof.lambda2),
        "ln_l1": fmt(prof.ln_l1),
        "ln_l2": fmt(prof.ln_l2),
        "h_top": fmt(prof.h_top),
    }


def _run_bounds(config: ExperimentConfig, facts: SystemFacts) -> dict:
    tau = family_exponents(config)
    extra: dict[str, Any] = {}
    if facts.kind in ("sft", "sofic"):
        extra = {"h_top": fmt(facts.h_top), "period": facts.period}
    index_ok = None
    if facts.kind == "sft":
        sets, common = _index_data(config, facts.decomposition)
        if sets is not None:
            index_ok = common is not None
            extra["index_sets"] = [sorted(list(pair) for pair in s.pairs) for s in sets]
            extra["common_difference"] = common
    context = _context(facts, "bounds", _all_naturals(config), index_ok)
    rows = [_report_row(rule, rep, **extra) for rule, rep in evaluate(facts, tau, context)]
    if facts.kind == "matrix":
        for i, triple in enumerate(config.rates):
            phi = triple.phi
            rep = covering_bounds(facts.crude, phi if isinstance(phi, RateExponents) else tau_exponents(phi))
            rows.append(_report_row("covering_lower", rep, rate_index=i))
    elif facts.kind == "profile":
        rows.append(_report_row("covering_lower", covering_bounds(facts.profile, tau)))
    return {"tau_upper": fmt(tau.tau_upper), "tau_lower": fmt(tau.tau_lower), "rows": rows}


def _run_exact(config: ExperimentConfig, facts: SystemFacts) -> dict:
    if facts.kind != "matrix":
        raise ConfigError("$.tasks", "task 'exact' requires a matrix system")
    tau = family_exponents(config)
    if not _all_naturals(config):
        row = {
            "rule": "exact_values",
            "case": None,
            "h_lower": None, "h_upper": None, "dim_lower": None, "dim_upper": None,
            "assumptions": [["time sets all naturals", False]],
            "notes": ["exact values are stated for time sets equal to all of N"],
        }
        return {"tau_lower": fmt(tau.tau_lower), "rows": [row]}
    rows = [_report_row(rule, rep) for rule, rep in evaluate(facts, tau, EvalContext("exact"))]
    return {"tau_lower": fmt(tau.tau_lower), "rows": rows}


def _require_constant_symbol_target(triple: RateTriple, i: int):
    tgt = triple.target
    if not isinstance(tgt, ShiftTarget) or tgt.preperiod or tgt.schedule_period != 1:
        raise ConfigError(
            f"$.rates[{i}].target", "oracle schemes need a constant symbol target"
        )
    return tgt.target(0)


def _require_sft(config: ExperimentConfig, task: str) -> ShiftOfFiniteType:
    # the CLI command need not be among config.tasks, which validation checked
    if config.system_kind != "sft":
        raise ConfigError("$.tasks", f"task {task!r} requires an SFT system")
    return config.system


def _run_oracle(config: ExperimentConfig) -> dict:
    shift = _require_sft(config, "oracle")
    params = config.oracle_params
    h = sft_entropy(shift)
    rows = []
    for i, triple in enumerate(config.rates):
        if not isinstance(triple.phi, Exponential):
            raise ConfigError(
                f"$.rates[{i}].phi", "oracle schemes need a pure exponential rate"
            )
        z = _require_constant_symbol_target(triple, i)
        tau = triple.phi.tau
        scheme = LimsupCylinderScheme(shift, tau, z)
        lo = params.grid_min if params.grid_min is not None else params.grid_step
        hi = params.grid_max if params.grid_max is not None else h + 0.1
        n_pts = int(round((hi - lo) / params.grid_step))
        grid = [lo + k * params.grid_step for k in range(n_pts + 1)]
        bracket = bracket_critical_exponent(scheme, grid, params.depth)
        moran = moran_dimension(shift, tau, params.stages)
        rows.append(
            {
                "rate_index": i,
                "tau": fmt(tau),
                "bracket_lo": fmt(bracket[0]),
                "bracket_hi": fmt(bracket[1]),
                "moran_estimate": fmt(moran),
                "shift_exact_value": fmt(h / (1.0 + tau)),
                "depth": params.depth,
                "stages": params.stages,
            }
        )
    return {"h_top": fmt(h), "rows": rows}


def _run_witness(config: ExperimentConfig) -> dict:
    shift = _require_sft(config, "witness")
    params = config.oracle_params
    rows = []
    for i, triple in enumerate(config.rates):
        if not isinstance(triple.phi, RateFunction):
            raise ConfigError(
                f"$.rates[{i}].phi", "witness construction needs a rate function"
            )
        if not isinstance(triple.target, ShiftTarget):
            raise ConfigError(f"$.rates[{i}].target", "symbolic target required")
        plan = plan_witness(
            shift, triple.phi, triple.target, triple.time_set, params.stages, params.eta
        )
        cert = construct_witness(plan, shift, triple.target)
        confirmed = verify_witness(cert.prefix, triple.phi, triple.target, triple.time_set)
        planned = [b.hit_time for b in plan.blocks]
        rows.append(
            {
                "rate_index": i,
                "planned_hits": planned,
                "prefix": "".join(str(c) for c in cert.prefix),
                "hits": [
                    [hh.time, hh.achieved_exponent, hh.required_exponent]
                    for hh in cert.hits
                ],
                "all_verified": cert.all_verified,
                "independently_confirmed": [n for n in confirmed if n in planned],
            }
        )
    return {"rows": rows}


def _run_sweep(config: ExperimentConfig, facts: SystemFacts) -> dict:
    if config.sweep_taus is None:
        raise ConfigError("$.sweep", "sweep requires a sweep.taus grid")
    return {"rows": sweep_rows(facts, config.sweep_taus)}


_EXECUTORS = {
    "analyze": _run_analyze,
    "bounds": _run_bounds,
    "exact": _run_exact,
    "oracle": _run_oracle,
    "witness": _run_witness,
    "sweep": _run_sweep,
}
# the tasks whose executors read the SystemFacts of the configured system
_FACT_TASKS = ("analyze", "bounds", "exact", "sweep")


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------


def run(config: ExperimentConfig, tasks: tuple[str, ...] | None = None, seedless: bool = False):
    """Execute tasks and assemble the report; returns (report, all_ok, timings).

    The system is analysed at most once per call, by the first task that
    needs it; a failed analysis becomes the error of every such task.
    """
    todo = tasks if tasks is not None else config.tasks
    results = []
    timings = []
    all_ok = True
    facts: SystemFacts | Exception | None = None
    for task in todo:
        started = time.perf_counter()
        try:
            if task in _FACT_TASKS:
                if facts is None:
                    try:
                        facts = system_facts(config.system, config.system_kind)
                    except TaskError as exc:
                        facts = exc
                if isinstance(facts, Exception):
                    raise facts
                payload = _EXECUTORS[task](config, facts)
            else:
                payload = _EXECUTORS[task](config)
            results.append({"task": task, "status": "ok", **payload})
        except TaskError as exc:
            all_ok = False
            results.append({"task": task, "status": "error", "error": str(exc)})
        timings.append((task, time.perf_counter() - started))
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "shrinktarget", "version": __version__},
        "seedless": seedless,
        "config": config.raw,
        "results": results,
    }
    return report, all_ok, timings


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


_SWEEP_COLUMNS = ("tau", "h_lower", "h_upper", "dim_lower", "dim_upper", "case_tag")
_BOUNDS_COLUMNS = ("rule", "case", "h_lower", "h_upper", "dim_lower", "dim_upper")


def render_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])
    return buf.getvalue()


def write_report(report: dict, out_dir: Path, formats: tuple[str, ...]) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_bytes(render_json(report).encode())
        written.append(path)
    if "csv" in formats:
        for res in report["results"]:
            if res.get("status") != "ok":
                continue
            if res["task"] == "sweep":
                path = out_dir / "sweep.csv"
                path.write_bytes(render_csv(res["rows"], _SWEEP_COLUMNS).encode())
                written.append(path)
            elif res["task"] == "bounds":
                path = out_dir / "bounds.csv"
                path.write_bytes(render_csv(res["rows"], _BOUNDS_COLUMNS).encode())
                written.append(path)
    return written


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinktarget",
        description="entropy and dimension bounds for shrinking target sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, helptext in (
        ("analyze", "spectral / symbolic structure of the system"),
        ("bounds", "sandwich bounds for the configured rates"),
        ("exact", "exact-value theorems (matrix systems, S = N)"),
        ("oracle", "covering-sum brackets and Moran estimates"),
        ("witness", "explicit witness-point construction"),
        ("sweep", "bound rows over a tau grid"),
    ):
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument(
            "--format", choices=("json", "csv", "both"), default=None,
            help="report formats (overrides config)",
        )
        p.add_argument(
            "--seedless", action="store_true",
            help="assert that no randomness is used (recorded in the report)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or os.environ.get(ENV_OUT) or config.output_dir)
    formats = config.formats
    if args.format == "both":
        formats = ("json", "csv")
    elif args.format is not None:
        formats = (args.format,)

    if args.command == "sweep" and config.sweep_taus is None:
        print("config error: $.sweep: sweep requires a sweep.taus grid", file=sys.stderr)
        return 2

    report, all_ok, timings = run(config, tasks=(args.command,), seedless=args.seedless)
    try:
        written = write_report(report, out_dir, formats)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    for task, seconds in timings:
        print(f"[{task}] {seconds:.3f}s", file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
