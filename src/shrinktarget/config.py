"""Experiment configuration: JSON ingestion with field-path diagnostics.

One structured document describes a system, a list of (rate, time set,
target) triples, the tasks it is meant for and the output destination.
Validation errors carry the JSON path of the offending field (e.g.
``rates[0].phi.tau``), and a validated config is immutable afterwards.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from pathlib import Path
from typing import Any, Union

from .rates import (
    EventuallyPeriodic,
    Exponential,
    PowerLaw,
    RateError,
    RateExponents,
    RateFunction,
    TimeSet,
)
from .symbolic import ShiftOfFiniteType, SoficPresentation, SymbolicError
from .systems import HyperbolicityProfile, IntegerMatrixSystem, SpectrumError

KEYS = ("system", "rates", "tasks", "oracle_params", "sweep", "output")
TASKS = ("analyze", "bounds", "exact", "oracle", "witness")
FORMATS = ("json", "csv")
MAX_DEPTH = 1000  # the fit is quadratic in depth: 0.6 s, one rate, 60-symbol SFT, x86-64
STREAM_KEYS = ("head", "cycle")  # the keys of a symbol stream
# the keys of each kind of the kind-dependent objects, "kind" included
KIND_KEYS = {
    "system": {
        "matrix": ("kind", "entries"),
        "sft": ("kind", "transition", "sided"),
        "sofic": ("kind", "states", "edges", "sided"),
        "profile": ("kind", "lambda1", "lambda2", "ln_l1", "ln_l2", "h_top"),
    },
    "phi": {
        "exponential": ("kind", "tau"),
        "power_law": ("kind", "a"),
        "piecewise_exponential": ("kind", "taus", "period"),
        "tabulated": ("kind", "values", "tail_tau"),
        "exponents": ("kind", "tau_upper", "tau_lower"),
    },
    "time_set": {
        "all": ("kind",),
        "arithmetic": ("kind", "offset", "step"),
        "explicit": ("kind", "times", "tail"),
    },
    "target": {
        "point": ("kind", "point"),
        "points": ("kind", "preperiod", "cycle"),
        "symbols": ("kind", *STREAM_KEYS),
        "symbol_schedule": ("kind", "preperiod", "cycle"),
    },
}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return obj[key]


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _known_keys(d: dict, keys, path: str) -> None:
    """Refuse the first key of ``d`` that is not among ``keys``."""
    for key in d:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _kind(d: dict, table: dict, path: str) -> Any:
    """The ``kind`` of ``d``; for a kind of ``table``, the first key of ``d``
    that kind does not have is refused."""
    kind = _require(d, "kind", path)
    if isinstance(kind, str) and kind in table:
        _known_keys(d, table[kind], path)
    return kind


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {type(value).__name__}")
    return value


def _list_of(value: Any, path: str, parse) -> list:
    """``parse(item, f"{path}[i]")`` of every item of the list ``value``."""
    return [parse(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))]


def _as_number(value: Any, path: str, allow_inf: bool = False) -> float:
    if allow_inf and value == "inf":
        return math.inf
    # every comparison with NaN is false, so no later range check would catch it
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf if value > 0 else -math.inf
    # JSON's Infinity is a float; only fields that mean infinity take it
    if math.isinf(number) and not allow_inf:
        raise ConfigError(path, f"expected a finite number, got {number!r}")
    return number


def _as_tau(value: Any, path: str) -> float:
    """A sweep tau: a JSON number other than a bool or NaN, Infinity included."""
    if isinstance(value, str):  # unlike "inf" in the fields that mean infinity
        raise ConfigError(path, f"expected a number, got {value!r}")
    return _as_number(value, path, allow_inf=True)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_symbol(value: Any, path: str) -> int:
    symbol = _as_int(value, path)
    if symbol < 0:
        raise ConfigError(path, f"expected a nonnegative integer, got {symbol}")
    return symbol


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _as_int_matrix(value: Any, path: str) -> list[list[int]]:
    """A list of lists of integers, checked by the types of its rows and of
    its entries in two C-level passes (bool is a type of its own); only when
    one fails are the entries walked again, to name the first failing path.
    The rows are returned as they are: the system they build copies them."""
    rows = _as_list(value, path)
    if not (set(map(type, rows)) <= {list} and set(map(type, chain.from_iterable(rows))) <= {int}):
        for i, row in enumerate(rows):
            for j, v in enumerate(_as_list(row, f"{path}[{i}]")):
                _as_int(v, f"{path}[{i}][{j}]")
    return rows


SystemSpec = Union[
    IntegerMatrixSystem, ShiftOfFiniteType, SoficPresentation, HyperbolicityProfile
]


@dataclass(frozen=True)
class RateTriple:
    phi: RateFunction | RateExponents
    time_set: TimeSet
    target: EventuallyPeriodic


@dataclass(frozen=True)
class OracleParams:
    depth: int = 40
    stages: int = 12
    eta: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemSpec
    rates: tuple[RateTriple, ...]
    oracle_params: OracleParams = OracleParams()
    sweep_taus: tuple[float, ...] | None = None
    output_dir: str = "out"
    formats: tuple[str, ...] = ("json",)
    raw: dict = field(default_factory=dict, compare=False)


def _parse_phi(obj: Any, path: str) -> RateFunction | RateExponents:
    d = _as_dict(obj, path)
    kind = _kind(d, KIND_KEYS["phi"], path)
    try:
        if kind == "exponential":
            return Exponential((_as_number(_require(d, "tau", path), f"{path}.tau"),))
        if kind == "power_law":
            return PowerLaw(_as_number(_require(d, "a", path), f"{path}.a"))
        if kind == "piecewise_exponential":
            taus = _list_of(_require(d, "taus", path), f"{path}.taus", _as_number)
            period = _as_int(_require(d, "period", path), f"{path}.period")
            if period < 1:
                raise ConfigError(path, f"period must be >= 1, got {period}")
            if len(taus) != period:
                raise ConfigError(path, f"need exactly {period} taus, got {len(taus)}")
            return Exponential(tuple(taus))
        if kind == "tabulated":
            values = _list_of(_require(d, "values", path), f"{path}.values", _as_number)
            tail_tau = _as_number(_require(d, "tail_tau", path), f"{path}.tail_tau")
            return Exponential((tail_tau,), tuple(values))
        if kind == "exponents":
            return RateExponents(
                _as_number(_require(d, "tau_upper", path), f"{path}.tau_upper", allow_inf=True),
                _as_number(_require(d, "tau_lower", path), f"{path}.tau_lower", allow_inf=True),
            )
    except RateError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown rate kind {kind!r}")


def _parse_arithmetic(obj: Any, path: str) -> TimeSet:
    d = _as_dict(obj, path)
    try:
        return TimeSet(
            _as_int(_require(d, "offset", path), f"{path}.offset"),
            _as_int(_require(d, "step", path), f"{path}.step"),
        )
    except RateError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_time_set(obj: Any, path: str) -> TimeSet:
    d = _as_dict(obj, path)
    kind = _kind(d, KIND_KEYS["time_set"], path)
    try:
        if kind == "all":
            return TimeSet()
        if kind == "arithmetic":
            return _parse_arithmetic(d, path)
        if kind == "explicit":
            times = _list_of(_require(d, "times", path), f"{path}.times", _as_int)
            # a bounded S has an empty hit set, so no theorem applies to it;
            # the tail is checked at its own path before the head
            tail = _parse_arithmetic(_require(d, "tail", path), f"{path}.tail")
            return replace(tail, times=tuple(times))
    except RateError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown time set kind {kind!r}")


def _parse_symbol_sequence(obj: Any, path: str) -> EventuallyPeriodic:
    d = _as_dict(obj, path)
    head = _list_of(d.get("head", []), f"{path}.head", _as_symbol)
    cycle = _list_of(_require(d, "cycle", path), f"{path}.cycle", _as_symbol)
    try:
        return EventuallyPeriodic(tuple(head), tuple(cycle))
    except RateError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_stream(obj: Any, path: str) -> EventuallyPeriodic:
    """A symbol stream of a schedule: a head and a cycle, nothing else."""
    _known_keys(_as_dict(obj, path), STREAM_KEYS, path)
    return _parse_symbol_sequence(obj, path)


def _as_point(value: Any, path: str) -> tuple[float, ...]:
    return tuple(_list_of(value, path, _as_number))


def _parse_target(obj: Any, path: str) -> EventuallyPeriodic:
    """z_n as an EventuallyPeriodic of points (a torus target) or of symbol
    streams (a shift target); a constant target is a one-element cycle."""
    d = _as_dict(obj, path)
    kind = _kind(d, KIND_KEYS["target"], path)
    try:
        if kind == "point":
            return EventuallyPeriodic((), (_as_point(_require(d, "point", path), f"{path}.point"),))
        if kind == "points":
            pre = _list_of(d.get("preperiod", []), f"{path}.preperiod", _as_point)
            cyc = _list_of(_require(d, "cycle", path), f"{path}.cycle", _as_point)
            return EventuallyPeriodic(tuple(pre), tuple(cyc))
        if kind == "symbols":
            return EventuallyPeriodic((), (_parse_symbol_sequence(d, path),))
        if kind == "symbol_schedule":
            pre = _list_of(d.get("preperiod", []), f"{path}.preperiod", _parse_stream)
            cyc = _list_of(_require(d, "cycle", path), f"{path}.cycle", _parse_stream)
            return EventuallyPeriodic(tuple(pre), tuple(cyc))
    except RateError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown target kind {kind!r}")


def _parse_system(obj: Any, path: str) -> SystemSpec:
    d = _as_dict(obj, path)
    kind = _kind(d, KIND_KEYS["system"], path)
    try:
        if kind == "matrix":
            entries = _as_int_matrix(_require(d, "entries", path), f"{path}.entries")
            return IntegerMatrixSystem(entries)
        if kind == "sft":
            entries = _as_int_matrix(_require(d, "transition", path), f"{path}.transition")
            return ShiftOfFiniteType(entries, d.get("sided", "one"))
        if kind == "sofic":
            edges = []
            for i, e in enumerate(_as_list(_require(d, "edges", path), f"{path}.edges")):
                e = _as_list(e, f"{path}.edges[{i}]")
                if len(e) != 3:
                    raise ConfigError(f"{path}.edges[{i}]", "expected [from, to, label]")
                edges.append(
                    (
                        _as_int(e[0], f"{path}.edges[{i}][0]"),
                        _as_int(e[1], f"{path}.edges[{i}][1]"),
                        _as_str(e[2], f"{path}.edges[{i}][2]"),
                    )
                )
            return SoficPresentation(
                _as_int(_require(d, "states", path), f"{path}.states"),
                tuple(edges),
                d.get("sided", "one"),
            )
        if kind == "profile":
            ln_l1 = d.get("ln_l1")
            lambda1 = _as_number(_require(d, "lambda1", path), f"{path}.lambda1", allow_inf=True)
            if ln_l1 is not None and math.isinf(lambda1):
                raise ConfigError(path, "a bi-Lipschitz profile (with ln_l1) needs a finite lambda1")
            if ln_l1 is None and not math.isinf(lambda1):
                raise ConfigError(path, "a Lipschitz profile (no ln_l1) needs lambda1 = \"inf\"")
            return HyperbolicityProfile(
                lambda1=lambda1,
                lambda2=_as_number(_require(d, "lambda2", path), f"{path}.lambda2"),
                ln_l2=_as_number(_require(d, "ln_l2", path), f"{path}.ln_l2"),
                h_top=_as_number(_require(d, "h_top", path), f"{path}.h_top"),
                ln_l1=None if ln_l1 is None else _as_number(ln_l1, f"{path}.ln_l1"),
            )
    except (SymbolicError, SpectrumError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown system kind {kind!r}")


def _validate_target_against_system(
    triple: RateTriple, system: SystemSpec, path: str
) -> None:
    tgt = triple.target
    # a target's kind is the type of its elements: point tuples or symbol streams
    if isinstance(system, IntegerMatrixSystem):
        if not isinstance(tgt.cycle[0], tuple):
            raise ConfigError(path, "torus systems need a point-valued target")
        for pt in tgt.head + tgt.cycle:
            if len(pt) != system.dim:
                raise ConfigError(path, f"point dimension {len(pt)} != torus dimension {system.dim}")
            if any(not (0.0 <= c < 1.0) for c in pt):
                raise ConfigError(path, "torus coordinates must lie in [0, 1)")
    elif isinstance(system, (ShiftOfFiniteType, SoficPresentation)):
        if not isinstance(tgt.cycle[0], EventuallyPeriodic):
            raise ConfigError(path, "symbolic systems need a symbol-valued target")
        if isinstance(system, ShiftOfFiniteType):
            for i, seq in enumerate(tgt.head + tgt.cycle):
                if not system.sequence_admissible(seq):
                    raise ConfigError(f"{path}", f"target sequence #{i} is not admissible")


def check_task(config: ExperimentConfig, task: str) -> None:
    """Raise ConfigError unless ``config`` holds what command ``task`` needs.

    The one place these requirements live: ``parse_config`` checks each
    task the config lists, and ``cli.run`` the command it runs, which need
    not be among them.  A system's kind is its type, so the checks dispatch
    on ``config.system`` itself.  A rate is read by value: the oracle's pure
    exponential is an ``Exponential`` with one tau and no table, whichever
    config kind spelled it.
    """
    system = config.system
    if task == "analyze" and isinstance(system, HyperbolicityProfile):
        raise ConfigError("$.tasks", "task 'analyze' requires a matrix or symbolic system")
    if task == "exact" and not isinstance(system, IntegerMatrixSystem):
        raise ConfigError("$.tasks", "task 'exact' requires a matrix system")
    if task == "sweep" and config.sweep_taus is None:
        raise ConfigError("$.sweep", "sweep requires a sweep.taus grid")
    if task not in ("oracle", "witness"):
        return
    if not isinstance(system, ShiftOfFiniteType):
        raise ConfigError("$.tasks", f"task {task!r} requires an SFT system")
    if system.sided != "one":
        raise ConfigError("$.tasks", "oracle/witness tasks need a one-sided SFT")
    # a witness is planned from phi itself; the oracle's cylinder schemes count
    # a hit at every time n, at radius e^(-tau n), of one target stream, which
    # gives the limsup set of any S that misses finitely many times
    for i, triple in enumerate(config.rates):
        path = f"$.rates[{i}]"
        if task == "witness":
            if not isinstance(triple.phi, RateFunction):
                raise ConfigError(f"{path}.phi", "witness construction needs a rate function")
        elif not triple.time_set.cofinite:
            raise ConfigError(f"{path}.time_set", "oracle schemes need the full time set")
        elif not isinstance(triple.phi, Exponential) or len(triple.phi.taus) != 1 or triple.phi.values:
            raise ConfigError(f"{path}.phi", "oracle schemes need a pure exponential rate")
        elif triple.target.head or len(triple.target.cycle) != 1:
            raise ConfigError(f"{path}.target", "oracle schemes need a constant symbol target")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object into an ExperimentConfig."""
    d = _as_dict(raw, "$")
    _known_keys(d, KEYS, "$")
    system = _parse_system(_require(d, "system", "$"), "$.system")

    rate_objs = _as_list(_require(d, "rates", "$"), "$.rates")
    if not rate_objs:
        raise ConfigError("$.rates", "need at least one rate triple")
    triples = []
    for i, r in enumerate(rate_objs):
        rd = _as_dict(r, f"$.rates[{i}]")
        _known_keys(rd, [f.name for f in fields(RateTriple)], f"$.rates[{i}]")
        triple = RateTriple(
            phi=_parse_phi(_require(rd, "phi", f"$.rates[{i}]"), f"$.rates[{i}].phi"),
            time_set=_parse_time_set(
                _require(rd, "time_set", f"$.rates[{i}]"), f"$.rates[{i}].time_set"
            ),
            target=_parse_target(
                _require(rd, "target", f"$.rates[{i}]"), f"$.rates[{i}].target"
            ),
        )
        _validate_target_against_system(triple, system, f"$.rates[{i}].target")
        triples.append(triple)

    task_list = _as_list(d.get("tasks", []), "$.tasks")
    if not task_list and "sweep" not in d:
        raise ConfigError("$.tasks", "task list must be nonempty (or provide a sweep grid)")
    for i, t in enumerate(task_list):
        if t not in TASKS:
            raise ConfigError(f"$.tasks[{i}]", f"unknown task {t!r}; valid: {TASKS}")

    op = OracleParams()
    if "oracle_params" in d:
        od = _as_dict(d["oracle_params"], "$.oracle_params")
        _known_keys(od, [f.name for f in fields(OracleParams)], "$.oracle_params")
        op = OracleParams(
            depth=_as_int(od.get("depth", op.depth), "$.oracle_params.depth"),
            stages=_as_int(od.get("stages", op.stages), "$.oracle_params.stages"),
            eta=_as_number(od.get("eta", op.eta), "$.oracle_params.eta"),
        )
        if op.depth < 4:
            raise ConfigError("$.oracle_params.depth", "depth must be >= 4")
        if op.depth > MAX_DEPTH:
            raise ConfigError("$.oracle_params.depth", f"depth must be <= {MAX_DEPTH}")
        if op.eta <= 0:
            raise ConfigError("$.oracle_params.eta", "eta must be positive")
        if op.stages < 0:
            raise ConfigError("$.oracle_params.stages", "stages must be nonnegative")

    sweep_taus = None
    if "sweep" in d:
        sd = _as_dict(d["sweep"], "$.sweep")
        _known_keys(sd, ("taus",), "$.sweep")
        grid = _as_list(_require(sd, "taus", "$.sweep"), "$.sweep.taus")
        try:  # the whole grid at once if it holds only ints and floats, and no NaN
            fast = set(map(type, grid)) <= {int, float} and not any(map(math.isnan, grid))
            taus = list(map(float, grid)) if fast else None
        except OverflowError:  # an integer beyond the float range
            taus = None
        if taus is None:  # element by element, naming the first that breaks the rule
            taus = [_as_tau(v, f"$.sweep.taus[{i}]") for i, v in enumerate(grid)]
        if any(map(operator.le, taus[1:], taus)):
            raise ConfigError("$.sweep.taus", "tau grid must be sorted strictly increasing")
        if taus and taus[0] < 0:  # the grid increases, so its first tau decides
            raise ConfigError("$.sweep.taus", "tau values must be nonnegative")
        sweep_taus = tuple(taus)

    out_dir = "out"
    formats: tuple[str, ...] = ("json",)
    if "output" in d:
        od = _as_dict(d["output"], "$.output")
        _known_keys(od, ("dir", "formats"), "$.output")
        out_dir = _as_str(od.get("dir", out_dir), "$.output.dir")
        if "formats" in od:
            fmts = _as_list(od["formats"], "$.output.formats")
            for i, f in enumerate(fmts):
                if f not in FORMATS:
                    raise ConfigError(f"$.output.formats[{i}]", f"unknown format {f!r}")
            if not fmts:
                raise ConfigError("$.output.formats", "formats must be nonempty")
            formats = tuple(fmts)

    config = ExperimentConfig(
        system=system,
        rates=tuple(triples),
        oracle_params=op,
        sweep_taus=sweep_taus,
        output_dir=out_dir,
        formats=formats,
        raw=raw,
    )
    for t in task_list:
        check_task(config, t)
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError("$", f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past str's digit limit
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return parse_config(raw)
