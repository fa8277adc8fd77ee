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
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shrinktarget.cli import (
    _BOUNDS_COLUMNS, _SWEEP_COLUMNS, Table, _column, fmt, render_csv, render_json, run, sweep_table, system_facts,
    write_report,
)
from shrinktarget.config import parse_config
from shrinktarget.systems import IntegerMatrixSystem
from test_golden_reports import CASES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def table_rows(table: Table) -> list[dict]:
    """The rows of ``table`` as dicts, which ``render_json`` writes it as."""
    return [dict(zip(table.keys, row, strict=True)) for row in zip(*table.columns, strict=True)]


def table_of(rows: list[dict], keys: tuple[str, ...]) -> Table:
    return Table(keys, tuple([row[k] for row in rows] for k in keys))


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


# strings that spell a row boundary of the matrix path, or half of one
ROW_TRICKY = TRICKY + ["],\n        [", "]", "["]
matrix_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(-(10**300), 10**300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 2**70]),
    st.text(max_size=8),
    st.sampled_from(ROW_TRICKY),
)


@st.composite
def matrices(draw):
    """1-6 non-empty rows of scalars, lists or tuples, sometimes with one
    empty row inserted (which the one-call path must leave alone)."""
    rows = draw(st.lists(st.lists(matrix_scalars, min_size=1, max_size=6), min_size=1, max_size=6))
    rows = [tuple(row) if draw(st.booleans()) else row for row in rows]
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], ()])))
    return rows


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.lists(flat_dicts, min_size=1, max_size=4),
        st.lists(st.one_of(flat_dicts, st.just({}), st.just([]), children), max_size=4),
        matrices(),
    )


trees = st.recursive(scalars | st.just({}) | st.just([]), _containers, max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_render_json_matches_json_dumps(obj):
    assert render_json(obj) == oracle(obj)


@st.composite
def tables(draw, mixed: bool = False):
    """1-60 rows over one key set; ``mixed`` inserts a row that breaks the table.

    The breaking row is a dict of other keys (as many, one more, or any),
    ``{}``, or a row of the same keys holding a list.
    """
    keys = draw(st.lists(strings, min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, scalars)), min_size=1, max_size=60))
    if mixed:
        other = draw(strings.filter(lambda k: k not in keys))
        odd = draw(
            st.one_of(
                flat_dicts,
                st.fixed_dictionaries(dict.fromkeys(keys[:-1] + [other], scalars)),
                st.fixed_dictionaries(dict.fromkeys(keys + [other], scalars)),
                st.just({}),
                st.fixed_dictionaries({**dict.fromkeys(keys, scalars), keys[-1]: st.lists(scalars, max_size=2)}),
            )
        )
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(flat_dicts, min_size=1, max_size=6), tables(), tables(mixed=True)), st.integers(0, 3))
def test_rows_at_any_depth(rows, depth):
    obj = rows
    for k in range(depth):
        obj = {"level": k, "rows": obj, "empty": [{}]}
    assert render_json(obj) == oracle(obj)


@st.composite
def column_tables(draw):
    """A ``Table`` of 0-60 rows over 1-6 keys in any order, its cells any scalars."""
    keys = draw(st.lists(strings, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(0, 60))
    return Table(tuple(keys), tuple(draw(st.lists(scalars, min_size=n, max_size=n)) for _ in keys))


def twin(cell):
    """A cell equal to ``cell`` by ``==`` but another object; JSON writes it differently where it can."""
    if type(cell) is bool:
        return int(cell)
    if type(cell) is int and abs(cell) < 2**53:
        return float(cell)
    if type(cell) is float:
        return -cell if cell == 0 else float(repr(cell))
    if type(cell) is str:
        return "".join(list(cell))  # a new object unless it is a cached one-character string
    return cell


@st.composite
def repeating_tables(draw, cells, keys=None):
    """A ``Table`` of 0-60 rows (over ``keys``, or 1-6 drawn keys) whose columns repeat.

    Each column is one of 1-3 base columns: the same list object, a copy
    of the list, or its ``twin``, equal by ``==`` and made of other cells.
    """
    if keys is None:
        keys = tuple(draw(st.lists(strings, min_size=1, max_size=6, unique=True)))
    n = draw(st.integers(0, 60))
    bases = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=3))
    columns = []
    for _ in keys:
        base, how = draw(st.sampled_from(bases)), draw(st.sampled_from(("same", "copy", "twin")))
        columns.append({"same": base, "copy": list(base), "twin": list(map(twin, base))}[how])
    return Table(keys, tuple(columns))


SHARED = [1, 0.0, None, True, "x"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(column_tables(), repeating_tables(scalars)), st.lists(st.booleans(), max_size=3))
@example(Table(("b", "a"), ([], [])), [])
@example(Table(("\x00", "a\nb"), (["},\n    {", math.nan], [10**300, "\x1f"])), [True, False])
@example(Table(("b", "a", "c"), (SHARED, list(SHARED), list(map(twin, SHARED)))), [True])
@example(Table(("b", "a"), ([None] * 3, [None] * 3)), [])
def test_table_renders_as_its_rows(table, levels):
    # nested in dicts (True) or lists (False), 0-3 levels deep
    obj, rows = table, table_rows(table)
    for k, in_dict in enumerate(levels):
        if in_dict:
            obj, rows = ({"level": k, "rows": x, "empty": [{}]} for x in (obj, rows))
        else:
            obj, rows = ([x, {"k": k}] for x in (obj, rows))
    assert render_json(obj) == oracle(rows)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.lists(st.booleans(), max_size=3))
def test_matrix_rows_at_any_depth(rows, levels):
    # nested in dicts (True) or lists (False), 0-3 levels deep
    obj = rows
    for k, in_dict in enumerate(levels):
        obj = {"level": k, "m": obj, "e": [[]]} if in_dict else [obj, {"k": k}]
    assert render_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [[[1]], [[1], []], [[], [1]], [("a",), [1]], {"m": [["],\n        ["]]}],
)
def test_matrix_edge_cases(obj):
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
    assert render_csv(table_of(rows, _BOUNDS_COLUMNS)) == old_render_csv(rows, _BOUNDS_COLUMNS)
    assert render_csv(table_of([], _SWEEP_COLUMNS)) == old_render_csv([], _SWEEP_COLUMNS)


csv_cells = st.one_of(
    st.none(),
    st.just(""),
    st.text(st.characters(max_codepoint=127), max_size=6),
    st.text(max_size=6),
    st.sampled_from([",", '"', "\r", "\n", "\r\n", " a", "b ", " ", 'x,"y"', "\u2028", "\x00"]),
    st.tuples(st.text(max_size=3), st.sampled_from([",", '"', "\r", "\n", " "]), st.text(max_size=3)).map("".join),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([_SWEEP_COLUMNS, _BOUNDS_COLUMNS]).flatmap(
    lambda cols: st.tuples(st.just(cols), st.lists(st.fixed_dictionaries(dict.fromkeys(cols, csv_cells)), max_size=8))
))
@example((_SWEEP_COLUMNS, []))
@example((_BOUNDS_COLUMNS, []))
def test_render_csv_matches_csv_writer(case):
    columns, rows = case
    assert render_csv(table_of(rows, columns)) == old_render_csv(rows, columns)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([_SWEEP_COLUMNS, _BOUNDS_COLUMNS]).flatmap(lambda keys: repeating_tables(csv_cells, keys)))
@example(Table(_SWEEP_COLUMNS, ([],) * 6))
@example(Table(_BOUNDS_COLUMNS, (["a,b", None], ["a,b", None], ["a,b", "q"], ["", None], [None, ""], ["", ""])))
def test_repeated_columns_csv(table):
    assert render_csv(table) == old_render_csv(table_rows(table), table.keys)


# the golden cases whose bounds or sweep command succeeds
TABLES = [
    (case, command, columns)
    for case, (_, commands) in CASES.items()
    for command, columns in (("bounds", _BOUNDS_COLUMNS), ("sweep", _SWEEP_COLUMNS))
    if commands.get(command) == 0
]


@pytest.mark.parametrize("case,command,columns", TABLES, ids=[f"{c}-{m}" for c, m, _ in TABLES])
def test_rows_carry_every_csv_column(case, command, columns, tmp_path):
    report, _, _ = run(parse_config(CASES[case][0]), command)
    (result,) = report["results"]
    rows = result["rows"]
    if command == "sweep":  # the sweep's rows are its table, in CSV column order
        assert isinstance(rows, Table) and rows.keys == columns
        rows = table_rows(rows)
    assert result["status"] == "ok" and rows
    for row in rows:
        assert set(columns) <= set(row)
    write_report(report, tmp_path, ("csv",))
    assert (tmp_path / f"{command}.csv").read_text() == old_render_csv(rows, columns)


def test_matrix_sweep_csv_unchanged():
    # the cat map and two expanding matrices, tau = 0, 0.05, ... past 1.5 h_top
    for entries in (((2, 1), (1, 1)), ((2,),), ((2, 0), (0, 3))):
        facts = system_facts(IntegerMatrixSystem(entries))
        table = sweep_table(facts, [k * 0.05 for k in range(int(1.5 * facts.h_top / 0.05) + 2)])
        assert render_csv(table) == old_render_csv(table_rows(table), _SWEEP_COLUMNS)


@pytest.mark.parametrize("case", ["cat_map", "jordan3_at_2"])
def test_full_size_sweep_report(case):
    # 2000 taus in [0, 2], the size the benchmark sweeps, crossing the thresholds
    rng = random.Random(20261018)
    cfg = dict(CASES[case][0], sweep={"taus": sorted({round(rng.uniform(0.0, 2.0), 9) for _ in range(2000)})})
    config = parse_config(cfg)
    facts = system_facts(config.system)
    p = facts.sharp if facts.sharp is not None else facts.crude  # the profile a matrix sweep reads
    for threshold in (c for c in (p.ln_l1, p.lambda1) if c is not None and math.isfinite(c)):
        assert config.sweep_taus[0] < threshold < config.sweep_taus[-1]
    report, ok, _ = run(config, "sweep")
    table = report["results"][0]["rows"]
    rows = table_rows(table)
    assert ok and len(rows) == len(cfg["sweep"]["taus"]) > 1900
    with pytest.raises(TypeError):  # a table is written by render_json alone
        json.dumps(report)
    assert render_json(report) == oracle(dict(report, results=[dict(report["results"][0], rows=rows)]))
    assert render_csv(table) == old_render_csv(rows, _SWEEP_COLUMNS)


def test_large_report_with_a_deep_table():
    # an EXACT sweep of 2000 taus (its four sides one list of strings) five levels down, in a
    # report above glibc's 128 KB mmap threshold, as the benchmark's sweep reports are
    cfg = dict(CASES["even_shift_sofic"][0], sweep={"taus": [k / 1000 for k in range(2000)]})
    report, ok, _ = run(parse_config(cfg), "sweep")
    table = report["results"][0]["rows"]
    assert ok and all(col == table.columns[1] for col in table.columns[2:5])
    obj = {"runs": [{"report": report, "n": 1}], "empty": {}}
    rows = table_rows(table)
    expected = oracle({"runs": [{"report": dict(report, results=[dict(report["results"][0], rows=rows)]), "n": 1}],
                       "empty": {}})
    assert len(expected) > 128 * 1024
    assert render_json(obj) == expected
    assert render_csv(table) == old_render_csv(rows, _SWEEP_COLUMNS)


# ---------------------------------------------------------------------------
# Numbers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "side",
    [0.5, -0.0, math.inf, np.float64(1 / 3), np.array(2.0), math.nan, np.float64(math.nan), None,
     np.array([0.25, math.nan, -math.inf, 1 / 3]), np.array([math.nan] * 4), np.array([-0.0, 0.0, 1e300, 5e-324])],
    ids=repr,
)
def test_column_formats_each_cell_as_fmt(side):
    # a side over a run of 4 taus: a scalar is every cell's value; None is unavailable
    cells = [side] * 4 if side is None or np.ndim(side) == 0 else side.tolist()
    expected = [fmt(x) for x in cells]
    assert _column(side, 4) == expected
    if np.ndim(side) == 0:
        assert _column(side, 0) == []


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
