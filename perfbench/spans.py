"""Spans around the public functions of every shrinktarget module, from outside.

``Tracer.install`` wraps each public (non-generator) function defined in the
traced modules, plus ``LimsupCylinderScheme.count``, and patches the wrapper
into every ``shrinktarget`` module namespace that holds the original: the
modules import by name (``shrinktarget.bounds.period_decomposition``,
``shrinktarget.oracle.count_words`` ...), so patching the defining module
alone would miss most calls.  Spans stay in memory as
``(name, start_ns, end_ns, parent, size)`` and are written once, at the end.

``layer_metrics`` turns a span list into the per-layer metrics: every ``_s``
value is self time, the span's duration minus the part covered by its
children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("config", "cli", "rates", "systems", "symbolic", "bounds", "oracle")
METHODS = {"oracle": ("LimsupCylinderScheme.count",)}
# position of the word-length argument of the exact (big-integer) counts,
# recorded as the span's size; log_count_words is left out, because the
# Moran estimate asks it for lengths of 10^21 symbols in floating point, and
# it counts exactly through count_words up to its own cut-over length
SIZE_ARG = {
    "symbolic.count_words": 1,
    "symbolic.count_sofic_words": 1,
    "oracle.LimsupCylinderScheme.count": 1,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size_at = SIZE_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            size = args[size_at] if size_at is not None and len(args) > size_at else None
            span = [name, clock(), 0, stack[-1] if stack else -1, size]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"shrinktarget.{short}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue  # a span would close before the generator runs
                wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
            for qual in METHODS.get(short, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(f"{short}.{qual}", cls.__dict__[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "shrinktarget" and not mod_name.startswith("shrinktarget."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric group -> span names; spans of a layer outside every group still
# count towards that layer's share
GROUPS = {
    "symbolic.period": (
        "symbolic.period_decomposition",
        "symbolic.digraph_period",
        "symbolic.strongly_connected_components",
        "symbolic.is_irreducible",
    ),
    "symbolic.perron": ("symbolic.perron_root", "symbolic.sft_entropy", "symbolic.sofic_entropy"),
    "symbolic.mixing_gap": ("symbolic.mixing_gap",),
    "symbolic.count": ("symbolic.count_words", "symbolic.log_count_words", "symbolic.count_sofic_words"),
    "systems.analyze": ("systems.analyze_matrix",),
    "systems.profile": (
        "systems.crude_profile_from_matrix",
        "systems.sharp_profile_from_matrix",
        "systems.entropy_toral",
        "systems.operator_norm",
    ),
    "oracle.scheme_count": ("oracle.LimsupCylinderScheme.count",),
    "oracle.bracket": ("oracle.bracket_critical_exponent", "oracle.covering_sum"),
    "oracle.moran": ("oracle.moran_dimension",),
    "oracle.plan": ("oracle.plan_witness",),
    "oracle.construct": ("oracle.construct_witness",),
    "oracle.verify": ("oracle.verify_witness",),
    "rates.exponents": ("rates.tau_exponents", "rates.family_tau", "rates.restrict_rate"),
    "cli.render": ("cli.render_json", "cli.render_csv", "cli.fmt"),
    "cli.write": ("cli.write_report",),
}


def _group_of(name: str) -> str:
    for group, names in GROUPS.items():
        if name in names:
            return group
    layer = name.split(".", 1)[0]
    return {"bounds": "bounds.eval", "config": "config.load", "cli": "cli.run_self"}.get(layer, layer + ".other")


def aggregate(spans: list[list]) -> dict:
    """Self seconds and outermost-call counts per group and per layer, max sizes."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    max_size: dict[str, int] = defaultdict(int)
    by_name: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, size) in enumerate(spans):
        by_name[name] += 1
        group = _group_of(name)
        own = (end - start - child_ns[i]) / 1e9
        self_s[group] += own
        self_s["layer:" + name.split(".", 1)[0]] += own
        if parent < 0 or _group_of(spans[parent][0]) != group:
            calls[group] += 1
        if size is not None:
            max_size[group] = max(max_size[group], int(size))
    return {"self_s": dict(self_s), "calls": dict(calls), "max_size": dict(max_size), "by_name": dict(by_name)}


def layer_metrics(agg: dict, passes: int, traced_wall_s: float, shift_calls: int, matrix_calls: int) -> dict:
    """Per-pass layer metrics from ``aggregate`` over ``passes`` traced passes.

    ``shift_calls``/``matrix_calls`` are the CLI calls per pass on symbolic and
    on matrix systems; ``traced_wall_s`` is the mean traced pass time.  An
    analysis is one period decomposition (``digraph_period``) of a shift, or
    one ``analyze_matrix`` of a matrix.
    """
    s, c, mx, n = agg["self_s"], agg["calls"], agg["max_size"], agg["by_name"]
    per = lambda d, k: d.get(k, 0) / passes  # noqa: E731
    out = {
        "symbolic.period_s": per(s, "symbolic.period"),
        "symbolic.period_calls": per(c, "symbolic.period"),
        "symbolic.perron_s": per(s, "symbolic.perron"),
        "symbolic.perron_calls": per(c, "symbolic.perron"),
        "symbolic.analyses_per_call": per(n, "symbolic.digraph_period") / shift_calls if shift_calls else 0.0,
        "symbolic.mixing_gap_s": per(s, "symbolic.mixing_gap"),
        "symbolic.mixing_gap_calls": per(c, "symbolic.mixing_gap"),
        "symbolic.count_s": per(s, "symbolic.count"),
        "symbolic.count_calls": per(c, "symbolic.count"),
        "symbolic.count_max_len": mx.get("symbolic.count", 0),
        "systems.analyze_s": per(s, "systems.analyze"),
        "systems.analyze_calls": per(c, "systems.analyze"),
        "systems.profile_s": per(s, "systems.profile"),
        "systems.profile_calls": per(c, "systems.profile"),
        "systems.analyses_per_call": per(n, "systems.analyze_matrix") / matrix_calls if matrix_calls else 0.0,
        "bounds.eval_s": per(s, "bounds.eval"),
        "bounds.eval_calls": per(c, "bounds.eval"),
        "oracle.scheme_count_s": per(s, "oracle.scheme_count"),
        "oracle.scheme_count_calls": per(c, "oracle.scheme_count"),
        "oracle.bracket_s": per(s, "oracle.bracket"),
        "oracle.moran_s": per(s, "oracle.moran"),
        "oracle.plan_s": per(s, "oracle.plan"),
        "oracle.construct_s": per(s, "oracle.construct"),
        "oracle.verify_s": per(s, "oracle.verify"),
        "rates.exponents_s": per(s, "rates.exponents"),
        "rates.exponents_calls": per(c, "rates.exponents"),
        "config.load_s": per(s, "config.load"),
        "cli.run_self_s": per(s, "cli.run_self"),
        "cli.render_s": per(s, "cli.render"),
        "cli.write_s": per(s, "cli.write"),
    }
    for layer in MODULES:
        share = per(s, "layer:" + layer) / traced_wall_s if traced_wall_s > 0 else 0.0
        out[f"{layer}.share"] = share
    return out
