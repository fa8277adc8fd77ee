"""numpy is imported where arrays pay, and never by a matrix analysis.

``analyze``, ``bounds`` and ``exact`` on a torus map or a profile are a few
hundred microseconds of integer algebra and float formulas, while importing
numpy takes tens of milliseconds of a cold run.  So no package module imports
numpy at its top level (an ``if TYPE_CHECKING:`` import serves annotations
only), and a fresh interpreter that imports the CLI, loads every golden
config and runs those three commands on every golden matrix and profile
config ends without numpy in ``sys.modules``.  Nor does building a shift:
its array image of the transition matrix is made on first read, so an
eager one would move numpy's import into config loading.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

from test_golden_reports import CASES

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "shrinktarget"
ANALYSES = ("analyze", "bounds", "exact")

# argv: a JSON list of [config path, [[command, expected exit code], ...]];
# prints, per stage, whether numpy was imported by then
SCRIPT = """
import contextlib, io, json, sys
from shrinktarget import cli, config

stages = {"import": "numpy" in sys.modules}
plan = json.loads(sys.argv[1])
for path, _ in plan:
    config.load_config(path)
stages["load_config"] = "numpy" in sys.modules
codes = []
for path, runs in plan:
    for command, _ in runs:
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main([command, "--config", path, "--out", "out"]))
        stages[f"{command} {path}"] = "numpy" in sys.modules
print(json.dumps({"stages": stages, "codes": codes}))
"""


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_no_module_imports_numpy_at_top_level():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text())
        in_defs = {n for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(f)}
        typing_only = {
            n
            for stmt in tree.body
            if isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name) and stmt.test.id == "TYPE_CHECKING"
            for n in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if _imports_numpy(node):
                assert node in in_defs or node in typing_only, f"{path.name}:{node.lineno} imports numpy at top level"


def test_matrix_and_profile_analyses_never_import_numpy(tmp_path):
    plan, expected = [], []
    for name, (config, codes) in CASES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        runs = [[c, codes[c]] for c in ANALYSES if c in codes] if config["system"]["kind"] in ("matrix", "profile") else []
        plan.append([str(path), runs])
        expected += [code for _, code in runs]
    assert len(expected) > 20
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, json.dumps(plan)],
        cwd=tmp_path,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout)
    assert result["codes"] == expected
    assert [stage for stage, imported in result["stages"].items() if imported] == []


# argv: a JSON list of golden sft and sofic system configs with their target
# streams as [head, cycle] pairs; prints the number of streams checked and
# whether numpy was imported by then
SHIFT_SCRIPT = """
import json, sys
from shrinktarget.rates import EventuallyPeriodic
from shrinktarget.symbolic import ShiftOfFiniteType, SoficPresentation

checked = 0
for system, targets in json.loads(sys.argv[1]):
    if system["kind"] == "sofic":
        SoficPresentation(system["states"], tuple(map(tuple, system["edges"])), system.get("sided", "one"))
        continue
    shift = ShiftOfFiniteType(system["transition"], system.get("sided", "one"))
    for head, cycle in targets:
        checked += shift.sequence_admissible(EventuallyPeriodic(tuple(head), tuple(cycle)))
print(json.dumps({"checked": checked, "numpy": "numpy" in sys.modules}))
"""


def _streams(target: dict) -> list[dict]:
    """The symbol streams of a config target: itself, or a schedule's."""
    if target["kind"] == "symbols":
        return [target]
    return target.get("preperiod", []) + target["cycle"]


def test_building_a_shift_never_imports_numpy():
    plan = [
        (config["system"], [(z.get("head", []), z["cycle"]) for r in config["rates"] for z in _streams(r["target"])])
        for config, _ in CASES.values()
        if config["system"]["kind"] in ("sft", "sofic")
    ]
    assert sum(system["kind"] == "sofic" for system, _ in plan) >= 2
    streams = sum(len(targets) for system, targets in plan if system["kind"] == "sft")
    assert streams > 10
    done = subprocess.run(
        [sys.executable, "-B", "-c", SHIFT_SCRIPT, json.dumps(plan)],
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == {"checked": streams, "numpy": False}
