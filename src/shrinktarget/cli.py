"""Batch front end: config in, deterministic machine-readable reports out.

Commands (one per task, plus ``sweep``): analyze, bounds, exact, oracle,
witness, sweep.  Each reads a JSON config, executes, and writes a report
of its one result into the output directory:

* ``report.json`` - always (when "json" is among the formats);
* ``sweep.csv`` / ``bounds.csv`` - tabular rows (when "csv" is requested).

The other commands write ``report.json`` only, so run without "json"
among their formats they exit 2 before running and write nothing.

Every real number in a report is rendered as a decimal string with 12
significant digits ('.' separator, LF line endings), so reruns of the same
config are byte-identical.  ``report.json`` is exactly
``json.dumps(report, indent=2, sort_keys=True)`` followed by one LF, with
a sweep's ``Table`` as its row dicts: two-space indentation, sorted keys,
every non-ASCII character escaped.
Wall-clock timings go to stderr only, never into report files.  Nothing in
the pipeline draws randomness; ``--seedless`` records that assertion in the
report.

Exit codes: 0 the command produced its result (rows whose hypotheses fail
are still results), 1 it errored, 2 validation/IO errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
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
    MixedRun,
    bounds_expanding,
    bounds_general_profile,
    bounds_hyperbolic_set,
    bounds_one_sided_shift,
    bounds_two_sided_shift,
    covering_bounds,
)
from .config import ConfigError, ExperimentConfig, SystemSpec, check_task, load_config
from .oracle import (
    LimsupCylinderScheme,
    construct_witness,
    critical_exponent,
    grid_cell,
    moran_dimension,
    moran_layout,
    plan_witness,
    verify_witness,
)
from .rates import RateExponents, family_tau, tau_exponents
from .symbolic import (
    NotMixingError,
    PeriodDecomposition,
    ShiftOfFiniteType,
    SoficPresentation,
    digraph_period,
    index_set,
    indices_intersect,
    mixing_gap,
    perron_root,
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
    # a time set that misses finitely many n has the limsup set of S = N
    return all(t.time_set.cofinite for t in config.rates)


# ---------------------------------------------------------------------------
# System analysis and bound dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemFacts:
    """What every command reads of one system; ``run`` analyses it first.

    ``system`` is the configured system, whose type is its kind; the rest
    is what its analysis found.
    Matrices: the spectrum and entropy, the crude profile and either the
    sharp profile or ``sharp_error``, the reason it does not apply
    (profiles and entropy only for hyperbolic spectra).
    Shifts: the period decomposition, the entropy and, for an SFT of period
    1, the mixing gap, which the oracle and witness commands use as the
    specification gap.  A profile is read as it is.
    """

    system: SystemSpec
    spectrum: SpectralProfile | None = None
    crude: HyperbolicityProfile | None = None
    sharp: HyperbolicityProfile | None = None
    sharp_error: str | None = None
    decomposition: PeriodDecomposition | None = None
    h_top: float | None = None
    gap: int | None = None


def system_facts(system: SystemSpec) -> SystemFacts:
    """Analyse ``system`` once, as its type says."""
    if isinstance(system, IntegerMatrixSystem):
        p = analyze_matrix(system)
        if not p.is_hyperbolic:
            return SystemFacts(system, spectrum=p)
        sharp = sharp_error = None
        try:
            sharp = sharp_profile_from_matrix(system, p)
        except SpectrumError as exc:
            sharp_error = str(exc)
        return SystemFacts(
            system, spectrum=p,
            crude=crude_profile_from_matrix(system, p), sharp=sharp,
            sharp_error=sharp_error, h_top=entropy_toral(p),
        )
    if isinstance(system, (ShiftOfFiniteType, SoficPresentation)):
        # an SFT's transition matrix, or the presentation graph of a sofic
        # shift; the period's search raises unless the graph is strongly
        # connected, so the entropy is ln of its Perron root.  An SFT's
        # search and root read its cached boolean and float images
        sft = isinstance(system, ShiftOfFiniteType)
        m = None if sft else system.adjacency()
        decomp = digraph_period(system.matrix_bool if sft else m)
        return SystemFacts(
            system, decomposition=decomp, h_top=math.log(perron_root(system.matrix_float if sft else m)),
            gap=mixing_gap(system) if sft and decomp.period == 1 else None,
        )
    return SystemFacts(system)


_COMPLEX_PAIR_NOTE = (
    "a modulus cluster contains complex eigenvalues; exactness is "
    "stated for two distinct eigenvalues and is reported by modulus"
)


def evaluate(
    facts: SystemFacts, tau: RateExponents, task: str, naturals: bool = True, index_ok: bool | None = None
) -> tuple[tuple[str, BoundReport], ...]:
    """The (rule, report) rows the theorems give for ``facts`` at ``tau``.

    ``tau`` holds floats, or float64 arrays over a run of a sweep grid
    (``sweep_table``); the report sides are then arrays over the run too.
    ``task`` is "bounds", "exact" or "sweep"; ``naturals`` says every time
    set is all of N, or misses only finitely many n, which gives the same
    limsup set (``TimeSet.cofinite``); ``index_ok`` says whether the index
    difference sets of a non-mixing shift intersect (None: not applicable).
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
    system = facts.system
    if isinstance(system, (ShiftOfFiniteType, SoficPresentation)):
        period = facts.decomposition.period
        if isinstance(system, SoficPresentation) and period > 1:
            # no index sets are derived from a presentation: a periodic sofic
            # shift gets neither the S = N substitution nor an index intersection
            naturals = index_ok = False
        fn = bounds_one_sided_shift if system.sided == "one" else bounds_two_sided_shift
        rep = fn(
            period == 1, facts.h_top, tau,
            time_sets_all_naturals=naturals, index_ok=index_ok,
        )
        return ((f"{system.sided}_sided_shift", rep),)
    if isinstance(system, HyperbolicityProfile):
        return (("general_profile_sandwich", bounds_general_profile(system, tau)),)

    p = facts.spectrum
    fn = bounds_expanding if p.is_expanding else bounds_hyperbolic_set
    if task != "bounds" and facts.sharp is not None:
        rep = fn(facts.sharp, tau, tau_lower_substitution=naturals)
        if p.is_expanding:
            return (("expanding_torus_exact", rep),)
        if p.has_complex_pair:
            rep = replace(rep, notes=rep.notes + (_COMPLEX_PAIR_NOTE,))
        return (("toral_automorphism_exact", rep),)
    if task == "exact":
        why = f": {facts.sharp_error}" if facts.sharp_error else ""
        raise HypothesisViolatedError(
            f"no exact theorem applies to this spectrum{why}; "
            "run the 'bounds' task for sandwich estimates"
        )
    if not p.is_hyperbolic:
        raise SpectrumError("spectrum has a modulus at 1; no bounds apply")
    profiles = [("crude", facts.crude)]
    if task == "bounds" and facts.sharp is not None:
        profiles.append(("sharp", facts.sharp))
    return tuple(
        (f"{label}_sandwich", fn(prof, tau, tau_lower_substitution=naturals))
        for label, prof in profiles
    )


def _column(side, n: int) -> list[str | None]:
    """A float or array over a run of ``n`` taus, each cell formatted as
    ``fmt`` does: None over the whole run where a report side is None."""
    import numpy as np

    if side is None:
        return [None] * n
    col = np.broadcast_to(side, n)
    return list(map(format, col.tolist(), itertools.repeat(".12g")))


@dataclass(frozen=True)
class Table:
    """Rows of scalars over ``keys``, held as one list per column, in CSV order.

    Not a list, so ``render_json`` alone writes it: as its row dicts.  Both
    renderers prepare each distinct column once; columns made of the same
    cell objects, as the equal sides of an EXACT sweep are, share the work.
    """

    keys: tuple[str, ...]
    columns: tuple[list, ...]


def sweep_table(facts: SystemFacts, taus) -> Table:
    """The sweep's ``_SWEEP_COLUMNS``, one row per tau, with tau_upper = tau_lower = tau and S = N.

    ``taus`` is evaluated in runs, each one ``evaluate`` call on a float64
    array, whose elements equal the per-tau floats bit for bit.  A call
    whose theorem meets a branch test that changes within the run raises
    ``MixedRun``; the run then ends where it changes, and ends found so far
    are kept, so a grid of r runs takes at most 2r - 1 calls.  Config
    validation makes ``taus`` strictly increasing, so there are a few runs.
    Each report side is formatted in one pass per run.
    """
    import numpy as np

    t = np.asarray(taus, dtype=float)
    sides: tuple[list, ...] = ([], [], [], [])
    tags: list[str] = []
    start, stops = 0, [len(t)]  # the run ends found so far, nearest last
    while start < len(t):
        run = t[start:stops[-1]]
        try:
            ((_, rep),) = evaluate(facts, RateExponents(run, run), "sweep")
        except MixedRun as exc:
            stops.append(start + exc.at)
            continue
        n = len(run)
        done: dict[int, list] = {}  # the sides of an EXACT report are one object
        for col, side in zip(sides, (rep.entropy_lower, rep.entropy_upper, rep.dim_lower, rep.dim_upper)):
            if id(side) not in done:
                done[id(side)] = _column(side, n)
            col += done[id(side)]
        tags += [rep.case_tag.value] * n
        start = stops.pop()
    return Table(_SWEEP_COLUMNS, (_column(t, len(t)), *sides, tags))


# ---------------------------------------------------------------------------
# Task executors
# ---------------------------------------------------------------------------


def _run_analyze(config: ExperimentConfig, facts: SystemFacts) -> dict:
    system = facts.system
    if isinstance(system, IntegerMatrixSystem):
        p = facts.spectrum
        out: dict[str, Any] = {
            "dim": p.dim,
            "determinant": system.det,
            "kind": system.kind,
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
    if isinstance(system, ShiftOfFiniteType):
        out = {
            "alphabet_size": system.alphabet_size,
            "sided": system.sided,
            "h_top": fmt(facts.h_top),
            "period": facts.decomposition.period,
            "classes": list(facts.decomposition.class_of),
        }
        if facts.gap is not None:
            out["mixing_gap"] = facts.gap
        return out
    # a sofic presentation: check_task admits no other kind
    return {
        "states": system.states,
        "labels": list(system.labels),
        "sided": system.sided,
        "h_top": fmt(facts.h_top),
        "period": facts.decomposition.period,
    }


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
    system = facts.system
    extra: dict[str, Any] = {}
    if isinstance(system, (ShiftOfFiniteType, SoficPresentation)):
        extra = {"h_top": fmt(facts.h_top), "period": facts.decomposition.period}
    index_ok = None
    if isinstance(system, ShiftOfFiniteType) and facts.decomposition.period > 1:
        # config validation gives a shift system shift targets
        sets = [index_set(t.target, t.time_set, facts.decomposition) for t in config.rates]
        common = indices_intersect(sets)
        index_ok = common is not None
        extra["index_sets"] = [sorted(list(pair) for pair in s.pairs) for s in sets]
        extra["common_difference"] = common
    rows = [
        _report_row(rule, rep, **extra)
        for rule, rep in evaluate(facts, tau, "bounds", _all_naturals(config), index_ok)
    ]
    if isinstance(system, IntegerMatrixSystem):
        for i, triple in enumerate(config.rates):
            rep = covering_bounds(facts.crude, tau_exponents(triple.phi))
            rows.append(_report_row("covering_lower", rep, rate_index=i))
    elif isinstance(system, HyperbolicityProfile):
        rows.append(_report_row("covering_lower", covering_bounds(system, tau)))
    return {"tau_upper": fmt(tau.tau_upper), "tau_lower": fmt(tau.tau_lower), "rows": rows}


def _run_exact(config: ExperimentConfig, facts: SystemFacts) -> dict:
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
    rows = [_report_row(rule, rep) for rule, rep in evaluate(facts, tau, "exact")]
    return {"tau_lower": fmt(tau.tau_lower), "rows": rows}


def _specification_gap(facts: SystemFacts) -> int:
    """The specification gap of the configured SFT, which must be mixing."""
    if facts.gap is None:
        period = facts.decomposition.period
        raise NotMixingError(period, f"oracle and witness need a mixing SFT (period 1); this shift has period {period}")
    return facts.gap


_GRID_STEP = 0.01  # the oracle bracket's width


def _run_oracle(config: ExperimentConfig, facts: SystemFacts) -> dict:
    gap = _specification_gap(facts)
    shift = config.system
    params = config.oracle_params
    h = facts.h_top
    # from 0, where s* = 0 of a zero-entropy shift lies, to h_top + 0.1
    grid = [k * _GRID_STEP for k in range(round((h + 0.1) / _GRID_STEP) + 1)]
    windows = {}  # the fit window's log counts per first target symbol, for this call only
    rows, layouts = [], []
    for i, triple in enumerate(config.rates):
        z = triple.target.at(0)
        tau = triple.phi.taus[0]
        scheme = LimsupCylinderScheme(shift, tau, z)
        z0 = z.at(0)
        if z0 not in windows:
            windows[z0] = scheme.log_window(params.depth)
        bracket = grid_cell(critical_exponent(scheme, params.depth, windows[z0]), grid)
        # laid out in rate order, so the first failing rate names the error; only the walk waits
        layouts.append(moran_layout(tau, params.stages, gap))
        rows.append(
            {
                "rate_index": i,
                "tau": fmt(tau),
                "bracket_lo": fmt(bracket[0]),
                "bracket_hi": fmt(bracket[1]),
                "moran_estimate": None,  # filled in from the one walk below
                "shift_exact_value": fmt(h / (1.0 + tau)),
                "depth": params.depth,
                "stages": params.stages,
            }
        )
    for row, moran in zip(rows, moran_dimension(shift, layouts)):  # one squaring walk for every rate
        row["moran_estimate"] = fmt(moran)
    return {"h_top": fmt(h), "rows": rows}


def _run_witness(config: ExperimentConfig, facts: SystemFacts) -> dict:
    import numpy as np

    gap = _specification_gap(facts)
    shift = config.system
    params = config.oracle_params
    # each symbol's printed name as NUL-padded fixed-width bytes: a prefix
    # prints as one gather from this table, with the padding dropped
    names = np.array([str(c) for c in range(shift.alphabet_size)], dtype="S")
    rows = []
    for i, triple in enumerate(config.rates):
        blocks = plan_witness(
            shift, triple.phi, triple.target, triple.time_set, params.stages, params.eta, gap
        )
        cert = construct_witness(blocks, shift, triple.target)
        achieved, confirmed = verify_witness(cert, shift, triple.phi, triple.target, triple.time_set)
        rows.append(
            {
                "rate_index": i,
                "planned_hits": [b.hit_time for b in blocks],
                "prefix": names[cert.prefix].tobytes().replace(b"\0", b"").decode(),
                "hits": [
                    [b.hit_time, a, b.required_exponent]
                    for b, a in zip(blocks, achieved)
                ],
                # first disagreement >= required index <=> distance < phi(time)
                "all_verified": all(a >= b.required_exponent for b, a in zip(blocks, achieved)),
                "independently_confirmed": confirmed,
            }
        )
    return {"rows": rows}


def _run_sweep(config: ExperimentConfig, facts: SystemFacts) -> dict:
    return {"rows": sweep_table(facts, config.sweep_taus)}


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


def run(config: ExperimentConfig, task: str, seedless: bool = False):
    """Run command ``task`` and assemble its report; returns (report, ok, seconds).

    The system is analysed first, then ``check_task`` runs, then the
    executor, which reads the ``SystemFacts``; the first of them to fail
    gives the error of the report's one result.
    """
    started = time.perf_counter()
    try:
        facts = system_facts(config.system)
        check_task(config, task)
        result = {"task": task, "status": "ok", **_EXECUTORS[task](config, facts)}
    # every error of the package is a ValueError; anything else is a bug
    except ValueError as exc:
        result = {"task": task, "status": "error", "error": str(exc)}
    seconds = time.perf_counter() - started
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "shrinktarget", "version": __version__},
        "seedless": seedless,
        "config": config.raw,
        "results": [result],
    }
    return report, result["status"] == "ok", seconds


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` plus LF, byte for byte.

    A ``Table`` counts as its list of row dicts.  ``_render`` appends the
    layout's pieces to one list, which is joined once: no enclosing level
    copies the text of what it holds.  Every container of scalars is one
    call of the C encoder, and every ``Table`` one call per distinct column.
    """
    out: list[str] = []
    _render(report, "\n", out)
    out.append("\n")
    return "".join(out)


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))
_key = json.encoder.encode_basestring_ascii


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


def _per_distinct(prepare, columns) -> list:
    """``prepare(column)`` for each of ``columns``, called once per distinct column.

    Columns whose cells are the same objects, one by one, share one result:
    the EXACT sides of a sweep are copies of one list of strings.  Equality
    by ``==`` would not do, since 1, 1.0 and True, or 0.0 and -0.0, are
    equal and written differently.
    """
    done: list[tuple] = []  # (column, result) of each distinct column
    out = []
    for col in columns:
        for seen, result in done:
            if len(seen) == len(col) and all(map(operator.is_, seen, col)):
                break
        else:
            result = prepare(col)
            done.append((col, result))
        out.append(result)
    return out


def _json_cells(column: list) -> list[str]:
    """The encoded cells of a non-empty column, by one encoder call split at ",<NUL>"
    (strings escape every control character, so only a separator holds a raw NUL)."""
    cells = _encoder("\x00")(column).split(",\x00")
    cells[0] = cells[0][1:]  # the brackets
    cells[-1] = cells[-1][:-1]
    return cells


def _render(obj, nl: str, out: list[str]) -> None:
    """Append ``obj`` in the indent-2 layout, closed on the line that ``nl`` starts, to ``out``.

    Dict keys are strings.  A ``Table`` encodes each distinct column once
    (``_json_cells``) and appends each row's key pieces and cells.  A list
    of non-empty lists of scalars (a transition or entries matrix, sofic
    edges, witness hits) takes one encoder call with the separator of the
    rows' members, "," + LF + indent, and one replace of the row boundary
    "]," + separator + "[" by the layout's: an encoded string holds no raw
    LF, and no encoded scalar ends in "]", so that boundary occurs only
    between rows.  Any other list goes member by member.
    """
    inner = nl + "  "
    if isinstance(obj, Table):
        if not obj.columns[0]:
            out.append("[]")
            return
        keys, columns = zip(*sorted(zip(obj.keys, obj.columns), key=operator.itemgetter(0)))
        member = inner + "  "
        heads = [itertools.repeat("," + member + _key(k) + ": ") for k in keys]
        first = "{" + member + _key(keys[0]) + ": "
        heads[0] = itertools.chain(("[" + inner + first,), itertools.repeat(inner + "}," + inner + first))
        cells = _per_distinct(_json_cells, columns)
        out += itertools.chain.from_iterable(zip(*itertools.chain.from_iterable(zip(heads, cells))))
        out.append(inner + "}" + nl + "]")
        return
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(_encoder(nl)(obj))
        return
    if _flat(obj.values() if isinstance(obj, dict) else obj):
        text = _encoder(inner)(obj)
        out += (text[0], inner, text[1:-1], nl + text[-1])
        return
    if isinstance(obj, dict):
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            out.append(sep + _key(k) + ": ")
            _render(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
        return
    if all(type(m) in (list, tuple) and m and _flat(m) for m in obj):
        # rows of scalars: every separator is "," + item, and "]," + item + "[" only between rows
        item = inner + "  "
        rows = _encoder(item)(obj)[2:-2].replace("]," + item + "[", inner + "]," + inner + "[" + item)
        out += ("[" + inner + "[" + item, rows, inner + "]" + nl + "]")
        return
    sep = "[" + inner
    for m in obj:
        out.append(sep)
        _render(m, inner, out)
        sep = "," + inner
    out.append(nl + "]")


_SWEEP_COLUMNS = ("tau", "h_lower", "h_upper", "dim_lower", "dim_upper", "case_tag")
_BOUNDS_COLUMNS = ("rule", "case", "h_lower", "h_upper", "dim_lower", "dim_upper")
_CSV_SPECIAL = ',"\n'  # csv.QUOTE_MINIMAL with lineterminator "\n" leaves a "\r" unquoted


def _csv_field(s: str) -> str:
    return '"' + s.replace('"', '""') + '"' if any(map(s.__contains__, _CSV_SPECIAL)) else s


def _csv_cells(cells: list) -> list[str]:
    """A column's CSV fields: None is written as "", and a field holding a special character is quoted."""
    col = list(map(str, map({None: ""}.get, cells, cells)))
    if any(map("\x00".join(col).__contains__, _CSV_SPECIAL)):
        col = list(map(_csv_field, col))
    return col


def render_csv(table: Table) -> str:
    """What ``csv.writer(lineterminator="\n")`` writes for ``table``: its keys, two or more, then its rows.

    Each distinct column is prepared once (``_per_distinct``), and the
    lines, the last LF among them, are joined once.
    """
    rows = map(",".join, zip(*_per_distinct(_csv_cells, table.columns)))
    return "\n".join(itertools.chain((",".join(map(_csv_field, table.keys)),), rows, ("",)))


_CSV_TASKS = ("bounds", "sweep")  # the commands that also write a CSV table


def write_report(report: dict, out_dir: Path, formats: tuple[str, ...]) -> list[Path]:
    """Write ``report.json`` and, for a bounds or sweep result, ``<task>.csv``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (res,) = report["results"]
    files = {"report.json": render_json(report)} if "json" in formats else {}
    if "csv" in formats and res["status"] == "ok" and res["task"] in _CSV_TASKS:
        table = res["rows"]
        if res["task"] == "bounds":  # row dicts with list cells, of which the CSV takes six keys
            table = Table(_BOUNDS_COLUMNS, tuple(list(map(operator.itemgetter(c), table)) for c in _BOUNDS_COLUMNS))
        files[f"{res['task']}.csv"] = render_csv(table)
    for name, text in files.items():
        (out_dir / name).write_bytes(text.encode())
    return [out_dir / name for name in files]


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
    if "json" not in formats and args.command not in _CSV_TASKS:
        print(f"format error: {args.command} writes only report.json, so its formats need 'json'", file=sys.stderr)
        return 2

    report, ok, seconds = run(config, args.command, seedless=args.seedless)
    try:
        written = write_report(report, out_dir, formats)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    print(f"[{args.command}] {seconds:.3f}s", file=sys.stderr)
    if not ok:  # a CSV-only run writes no report, so the error is named here
        print(f"error: {report['results'][0]['error']}", file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
