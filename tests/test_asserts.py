"""Every ``assert`` in the package only narrows a type for the reader.

``python -O`` strips assert statements, so a check whose failure must stop
a run is an ``if``/``raise``.  An assert may stay only as an ``isinstance``
narrowing of a value that earlier dispatch has already decided, where
stripping it changes nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shrinktarget"


def _is_narrowing(node: ast.Assert) -> bool:
    test = node.test
    return isinstance(test, ast.Call) and isinstance(test.func, ast.Name) and test.func.id == "isinstance"


def _checks(tree: ast.Module) -> list[int]:
    """The line of each assert in ``tree`` that is not an isinstance narrowing."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert) and not _is_narrowing(node)]


def test_an_assert_that_checks_a_value_is_found():
    tree = ast.parse(
        "def f(system, shift, prefix):\n"
        "    assert isinstance(system, int)\n"  # narrowing: kept
        "    assert shift.word_admissible(prefix), 'inadmissible'\n"  # a check: stripped by -O
        "    assert not isinstance(system, str)\n"  # a check on a type, not a narrowing
        "    assert isinstance(system, int) and prefix\n"
    )
    assert _checks(tree) == [3, 4, 5]


def test_every_assert_is_an_isinstance_narrowing():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _checks(ast.parse(path.read_text()))
    ]
    assert found == []
