"""The package holds no ``assert`` statement.

``python -O`` strips assert statements, so a check whose failure must stop
a run is an ``if``/``raise``, and a type that earlier dispatch has decided
is narrowed by that dispatch (an ``isinstance`` branch), not by an assert.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shrinktarget"


def _asserts(tree: ast.Module) -> list[int]:
    """The line of each assert in ``tree``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_an_assert_that_checks_a_value_is_found():
    tree = ast.parse(
        "def f(system, shift, prefix):\n"
        "    assert isinstance(system, int)\n"  # a narrowing is found too
        "    assert shift.word_admissible(prefix), 'inadmissible'\n"
        "    if prefix:\n"
        "        assert not isinstance(system, str)\n"
    )
    assert _asserts(tree) == [2, 3, 5]


def test_package_has_no_assert():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _asserts(ast.parse(path.read_text()))
    ]
    assert found == []
