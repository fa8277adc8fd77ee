"""Report rendering: JSON layout, CSV rows and number formatting.

``render_json`` writes its layout through the C encoder; ``json.dumps`` with
``indent=2`` is the oracle it must match byte for byte, on random JSON trees
and on every committed golden report.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget.cli import _BOUNDS_COLUMNS, _SWEEP_COLUMNS, fmt, render_csv, render_json, run, sweep_rows, system_facts
from shrinktarget.config import parse_config
from shrinktarget.systems import IntegerMatrixSystem
from test_golden_reports import CASES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

TRICKY = ["", "\xe9", "\u2028", "\u2029", "\x00", "\x1f", "\x7f", "\U0001f600", '"', "\\", "a\nb", "\r\t",
          "},\n    {", '},\n      {"a": 1', "}, {", "\n  }\n]"]
strings = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(-(10**300), 10**300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300, 5e-324]),
    strings,
)
flat_dicts = st.dictionaries(strings, scalars, min_size=1, max_size=5)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.lists(flat_dicts, min_size=1, max_size=4),
        st.lists(st.one_of(flat_dicts, st.just({}), st.just([]), children), max_size=4),
    )


trees = st.recursive(scalars | st.just({}) | st.just([]), _containers, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_render_json_matches_json_dumps(obj):
    assert render_json(obj) == oracle(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(flat_dicts, min_size=1, max_size=6), st.integers(0, 3))
def test_rows_at_any_depth(rows, depth):
    obj = rows
    for k in range(depth):
        obj = {"level": k, "rows": obj, "empty": [{}]}
    assert render_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[]],
        [{}],
        {"a": {}},
        [{"a": 1}, {}],
        [{"a": 1}, {"b": [1]}],
        [{"a": "},\n    {"}, {"b": "x\ny"}],
        {"rows": [{"k": True, "j": 1}, {"k": 2**70, "j": None}]},
        (1, (2, 3.5), {"b": (), "a": -math.inf}),
        {"z": math.nan, "y": [math.inf]},
        # subclasses of float and dict, which json.dumps accepts
        [np.float64(0.1), {"a": np.float64(-math.inf)}],
        {"rows": [{"a": 1}, collections.OrderedDict(b=2)]},
    ],
)
def test_render_json_edge_cases(obj):
    assert render_json(obj) == oracle(obj)


def test_render_json_rejects_what_json_rejects():
    for bad in ({"a": {1, 2}}, [np.int64(1)], {"rows": [{"a": object()}]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            render_json(bad)


def test_non_string_keys_raise_rather_than_render_differently():
    # report keys are strings; json.dumps would print this key as "1"
    with pytest.raises(TypeError):
        render_json({"k": {1: [2]}})


GOLDEN_REPORTS = sorted(GOLDEN.glob("**/report.json"))


@pytest.mark.parametrize("path", GOLDEN_REPORTS, ids=[str(p.relative_to(GOLDEN).parent) for p in GOLDEN_REPORTS])
def test_golden_reports_rerender(path):
    text = path.read_text()
    assert render_json(json.loads(text)) == text


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def old_render_csv(rows, columns):
    """The per-cell loop that ``render_csv`` replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])
    return buf.getvalue()


def test_render_csv_writes_none_as_empty():
    rows = [
        {"rule": "r", "case": None, "h_lower": "0.5", "h_upper": None, "dim_lower": "1", "dim_upper": "1"},
        {"rule": "a,b", "case": "EXACT", "h_lower": None, "h_upper": 'q"q', "dim_lower": None, "dim_upper": "x\ny"},
    ]
    assert render_csv(rows, _BOUNDS_COLUMNS) == old_render_csv(rows, _BOUNDS_COLUMNS)
    assert render_csv([], _SWEEP_COLUMNS) == old_render_csv([], _SWEEP_COLUMNS)


# the golden cases whose bounds or sweep command succeeds
TABLES = [
    (case, command, columns)
    for case, (_, commands) in CASES.items()
    for command, columns in (("bounds", _BOUNDS_COLUMNS), ("sweep", _SWEEP_COLUMNS))
    if commands.get(command) == 0
]


@pytest.mark.parametrize("case,command,columns", TABLES, ids=[f"{c}-{m}" for c, m, _ in TABLES])
def test_rows_carry_every_csv_column(case, command, columns):
    report, _, _ = run(parse_config(CASES[case][0]), tasks=(command,))
    (result,) = report["results"]
    assert result["status"] == "ok" and result["rows"]
    for row in result["rows"]:
        assert set(columns) <= set(row)
    assert render_csv(result["rows"], columns) == old_render_csv(result["rows"], columns)


def test_matrix_sweep_csv_unchanged():
    # the cat map and two expanding matrices, tau = 0, 0.05, ... past 1.5 h_top
    for entries in (((2, 1), (1, 1)), ((2,),), ((2, 0), (0, 3))):
        facts = system_facts(IntegerMatrixSystem(entries), "matrix")
        rows = sweep_rows(facts, [k * 0.05 for k in range(int(1.5 * facts.h_top / 0.05) + 2)])
        assert render_csv(rows, _SWEEP_COLUMNS) == old_render_csv(rows, _SWEEP_COLUMNS)


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------


def test_fmt_pins():
    assert fmt(None) is None
    assert fmt(math.inf) == "inf"
    assert fmt(-math.inf) == "-inf"
    assert fmt(math.nan) == "nan"
    assert fmt(3) == "3"
    assert fmt(-2**60) == "-1.15292150461e+18"
    assert fmt(0.1 + 0.2) == "0.3"
    for x in (0.48121182505960347, -1e-300, 123456789012345.0, math.inf, -math.inf):
        assert fmt(np.float64(x)) == fmt(x)
    assert fmt(np.float64(math.nan)) == "nan"
