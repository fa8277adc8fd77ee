"""Batch front end: config in, deterministic machine-readable reports out.

Commands (one per task, plus ``sweep``): analyze, bounds, exact, oracle,
witness, sweep.  Each reads a JSON config, executes, and writes a report
into the output directory:

* ``report.json`` - always (when "json" is among the formats);
* ``sweep.csv`` / ``bounds.csv`` - tabular rows (when "csv" is requested).

Every real number in a report is rendered as a decimal string with 12
significant digits ('.' separator, LF line endings), so reruns of the same
config are byte-identical.  ``report.json`` is exactly
``json.dumps(report, indent=2, sort_keys=True)`` followed by one LF:
two-space indentation, sorted keys, every non-ASCII character escaped.
Wall-clock timings go to stderr only, never into report files.  Nothing in
the pipeline draws randomness; ``--seedless`` records that assertion in the
report.

Exit codes: 0 all requested tasks produced results (rows whose hypotheses
fail are still results), 1 a task errored, 2 validation/IO errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import operator
import os
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

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
    tau_runs,
)
from .config import ConfigError, ExperimentConfig, RateTriple, SystemSpec, load_config
from .oracle import (
    LimsupCylinderScheme,
    OracleError,
    construct_witness,
    critical_exponent,
    grid_cell,
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
    tau_exponents,
)
from .symbolic import (
    NotMixingError,
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
    """Real values become 12-significant-digit decimal strings; None stays.

    Infinities and NaN print as "inf", "-inf" and "nan".
    """
    if x is None:
        return None
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


def family_exponents(config: ExperimentConfig) -> RateExponents:
    return family_tau([tau_exponents(t.phi, t.time_set) for t in config.rates])


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
    """What every command reads of one system, analysed once per run().

    Matrices: the system, its spectrum and entropy, the crude profile and
    either the sharp profile or ``sharp_error``, the reason it does not
    apply (profiles and entropy only for hyperbolic spectra).
    SFTs: the period decomposition, entropy, sidedness and, when the period
    is 1, the mixing gap, which the oracle and witness commands use as the
    specification gap.  Sofic shifts: the period, entropy and sidedness.
    ``profile`` systems: the profile.
    """

    kind: str
    matrix: IntegerMatrixSystem | None = None
    spectrum: SpectralProfile | None = None
    crude: HyperbolicityProfile | None = None
    sharp: HyperbolicityProfile | None = None
    sharp_error: str | None = None
    decomposition: PeriodDecomposition | None = None
    period: int | None = None
    h_top: float | None = None
    gap: int | None = None
    sided: str | None = None
    profile: HyperbolicityProfile | None = None


def system_facts(system: SystemSpec, kind: str) -> SystemFacts:
    """Analyse ``system`` (of config kind ``kind``) once."""
    if kind == "matrix":
        assert isinstance(system, IntegerMatrixSystem)
        p = analyze_matrix(system)
        if not p.is_hyperbolic:
            return SystemFacts(kind, matrix=system, spectrum=p)
        sharp = sharp_error = None
        try:
            sharp = sharp_profile_from_matrix(system, p)
        except SpectrumError as exc:
            sharp_error = str(exc)
        return SystemFacts(
            kind, matrix=system, spectrum=p,
            crude=crude_profile_from_matrix(system, p), sharp=sharp,
            sharp_error=sharp_error, h_top=entropy_toral(p),
        )
    if kind == "sft":
        assert isinstance(system, ShiftOfFiniteType)
        decomp = period_decomposition(system)
        return SystemFacts(
            kind, decomposition=decomp, period=decomp.period, h_top=sft_entropy(system),
            gap=mixing_gap(system) if decomp.period == 1 else None, sided=system.sided,
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

    ``tau`` holds floats, or float64 arrays for one run of a sweep grid
    (``sweep_rows``); the report sides are then arrays over the run too.
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


def _tau_thresholds(facts: SystemFacts) -> tuple[float, ...]:
    """The thresholds that the theorem ``evaluate`` picks for a sweep tests tau against.

    A two-sided shift has ln L1 = 1; a profile has ln L1 (when bi-Lipschitz)
    and lambda1 (+inf for a Lipschitz one).  A matrix sweeps its sharp
    profile, or the crude one; a non-hyperbolic matrix has neither and fails.
    """
    if facts.kind in ("sft", "sofic"):
        return (1.0,) if facts.sided == "two" else ()
    p = facts.profile if facts.kind == "profile" else facts.sharp if facts.sharp is not None else facts.crude
    return () if p is None else tuple(c for c in (p.ln_l1, p.lambda1) if c is not None)


def _column(side, n: int) -> list[str | None]:
    """A float or array over a run of ``n`` taus, formatted as ``fmt`` does.

    None where a report side is unavailable: the whole run, or NaN elements.
    """
    if side is None:
        return [None] * n
    col = np.broadcast_to(side, n)
    out = list(map(format, col.tolist(), itertools.repeat(".12g")))
    for i in np.flatnonzero(np.isnan(col)).tolist():
        out[i] = None
    return out


def sweep_rows(facts: SystemFacts, taus) -> list[dict]:
    """One sweep row per tau, with tau_upper = tau_lower = tau and S = N.

    ``taus`` is split into the runs the theorems dispatch on
    (``bounds.tau_runs`` at ``_tau_thresholds``); config validation makes it
    strictly increasing, so there are a few.  Each run is one ``evaluate``
    call on a float64 array, whose elements equal the per-tau floats bit for
    bit, and each report side is formatted in one pass per run.
    """
    context = _context(facts, "sweep")
    t = np.asarray(taus, dtype=float)
    sides: tuple[list, ...] = ([], [], [], [])
    tags: list[str] = []
    for run in tau_runs(t, _tau_thresholds(facts)):
        ((_, rep),) = evaluate(facts, RateExponents(t[run], t[run]), context)
        n = run.stop - run.start
        done: dict[int, list] = {}  # the sides of an EXACT report are one object
        for col, side in zip(sides, (rep.entropy_lower, rep.entropy_upper, rep.dim_lower, rep.dim_upper)):
            if id(side) not in done:
                done[id(side)] = _column(side, n)
            col += done[id(side)]
        tags += [rep.case_tag.value] * n
    # a dict display builds each row faster than dict(zip(_SWEEP_COLUMNS, ...))
    return [
        {"tau": a, "h_lower": b, "h_upper": c, "dim_lower": d, "dim_upper": e, "case_tag": f}
        for a, b, c, d, e, f in zip(_column(t, len(t)), *sides, tags)
    ]


# ---------------------------------------------------------------------------
# Task executors
# ---------------------------------------------------------------------------


def _run_analyze(config: ExperimentConfig, facts: SystemFacts) -> dict:
    if facts.kind == "matrix":
        m, p = facts.matrix, facts.spectrum
        out: dict[str, Any] = {
            "dim": p.dim,
            "determinant": m.det,
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
        if facts.gap is not None:
            out["mixing_gap"] = facts.gap
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
            rep = covering_bounds(facts.crude, triple.phi)
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


def _specification_gap(facts: SystemFacts, task: str) -> int:
    """The specification gap of the configured SFT, which must be mixing."""
    # the CLI command need not be among config.tasks, which validation checked
    if facts.kind != "sft":
        raise ConfigError("$.tasks", f"task {task!r} requires an SFT system")
    if facts.gap is None:
        raise NotMixingError(facts.period)
    return facts.gap


@dataclass(frozen=True)
class _ArithmeticGrid(Sequence):
    """The grid lo + k * step, k = 0..size - 1, each value computed on demand."""

    lo: float
    step: float
    size: int

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> float:
        return self.lo + range(self.size)[k] * self.step


def _run_oracle(config: ExperimentConfig, facts: SystemFacts) -> dict:
    gap = _specification_gap(facts, "oracle")
    shift = config.system
    params = config.oracle_params
    h = facts.h_top
    lo = params.grid_min if params.grid_min is not None else params.grid_step
    hi = params.grid_max if params.grid_max is not None else h + 0.1
    n_pts = (hi - lo) / params.grid_step
    if not n_pts < sys.maxsize:  # inf too: a sequence cannot index that many points
        raise OracleError(
            f"grid_step = {params.grid_step:g} over [{lo:g}, {hi:g}] "
            "gives more grid points than a sequence can index"
        )
    grid = _ArithmeticGrid(lo, params.grid_step, max(0, round(n_pts) + 1))
    words = {}  # the schemes' word counts per first target symbol, for this call only
    rows = []
    for i, triple in enumerate(config.rates):
        if not isinstance(triple.phi, Exponential):
            raise ConfigError(
                f"$.rates[{i}].phi", "oracle schemes need a pure exponential rate"
            )
        z = _require_constant_symbol_target(triple, i)
        tau = triple.phi.tau
        scheme = LimsupCylinderScheme(shift, tau, z)
        z0 = z.symbol(0)
        if z0 not in words:
            words[z0] = scheme.word_sequences(params.depth)
        bracket = grid_cell(critical_exponent(scheme, params.depth, words[z0]), grid)
        moran = moran_dimension(shift, tau, params.stages, gap)
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


def _run_witness(config: ExperimentConfig, facts: SystemFacts) -> dict:
    gap = _specification_gap(facts, "witness")
    shift = config.system
    params = config.oracle_params
    names = [str(c) for c in range(shift.alphabet_size)]  # printed prefix, symbol by symbol
    rows = []
    for i, triple in enumerate(config.rates):
        if not isinstance(triple.phi, RateFunction):
            raise ConfigError(
                f"$.rates[{i}].phi", "witness construction needs a rate function"
            )
        if not isinstance(triple.target, ShiftTarget):
            raise ConfigError(f"$.rates[{i}].target", "symbolic target required")
        plan = plan_witness(
            shift, triple.phi, triple.target, triple.time_set, params.stages, params.eta, gap
        )
        cert = construct_witness(plan, shift, triple.target)
        rows.append(
            {
                "rate_index": i,
                "planned_hits": [b.hit_time for b in plan.blocks],
                "prefix": "".join([names[c] for c in cert.prefix]),
                "hits": [
                    [hh.time, hh.achieved_exponent, hh.required_exponent]
                    for hh in cert.hits
                ],
                "all_verified": cert.all_verified,
                "independently_confirmed": verify_witness(
                    cert, triple.phi, triple.target, triple.time_set
                ),
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


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------


def run(config: ExperimentConfig, tasks: tuple[str, ...] | None = None, seedless: bool = False):
    """Execute tasks and assemble the report; returns (report, all_ok, timings).

    The system is analysed once per call, by the first task, and every
    executor reads those ``SystemFacts``; a failed analysis becomes the error
    of every task.
    """
    todo = tasks if tasks is not None else config.tasks
    results = []
    timings = []
    all_ok = True
    facts: SystemFacts | Exception | None = None
    for task in todo:
        started = time.perf_counter()
        try:
            if facts is None:
                try:
                    facts = system_facts(config.system, config.system_kind)
                except TaskError as exc:
                    facts = exc
            if isinstance(facts, Exception):
                raise facts
            results.append({"task": task, "status": "ok", **_EXECUTORS[task](config, facts)})
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
    """``json.dumps(report, indent=2, sort_keys=True)`` plus LF, byte for byte.

    The layout is written by ``_render``, which leaves every container of
    scalars, and every list of such dicts, to one call of the C encoder.
    """
    return _render(report, "\n") + "\n"


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _encoder(nl: str):
    """The C encoder with item separator ``"," + nl``; ``nl`` is LF + indent.

    CPython encodes in C whenever ``indent`` is None; ASCII escaping and
    NaN/Infinity are the ``json.dumps`` defaults.
    """
    return json.JSONEncoder(separators=("," + nl, ": "), sort_keys=True).encode


def _flat(members) -> bool:
    # by exact type: a subclass of a container or scalar takes the general path
    return _SCALARS.issuperset(map(type, members))


def _render(obj, nl: str) -> str:
    """``obj`` in the indent-2 layout, closed on the line that ``nl`` starts.

    Dict keys are strings.  A list of flat dicts is one encoder call whose
    item separator is the dicts' member separator; a raw newline in encoder
    output only comes from a separator (strings escape theirs), and after a
    separator only a list item starts with "{", so each "},<nl>{" is an item
    boundary and is re-indented.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _encoder(nl)(obj)
    inner = nl + "  "
    if _flat(obj.values() if isinstance(obj, dict) else obj):
        text = _encoder(inner)(obj)
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if isinstance(obj, dict):
        body = ("," + inner).join(
            json.encoder.encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in sorted(obj.items())
        )
        return "{" + inner + body + nl + "}"
    member = inner + "  "
    if (
        set(map(type, obj)) == {dict}
        and all(obj)
        and _flat(itertools.chain.from_iterable(map(dict.values, obj)))
    ):
        rows = _encoder(member)(obj)[2:-2].replace("}," + member + "{", inner + "}," + inner + "{" + member)
        return "[" + inner + "{" + member + rows + inner + "}" + nl + "]"
    return "[" + inner + ("," + inner).join(_render(m, inner) for m in obj) + nl + "]"


_SWEEP_COLUMNS = ("tau", "h_lower", "h_upper", "dim_lower", "dim_upper", "case_tag")
_BOUNDS_COLUMNS = ("rule", "case", "h_lower", "h_upper", "dim_lower", "dim_upper")


def render_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    # every row has every column; csv writes None as ""
    writer.writerows(map(operator.itemgetter(*columns), rows))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and kept: parse_args leaves it unchanged
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
