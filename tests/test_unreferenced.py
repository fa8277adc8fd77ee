"""Every definition in the package is reached from the package itself.

A function, class or method that only tests (or nothing) call belongs in
the tests, not in ``src/``.  The scan is by name: a definition counts as
used when some ``Name`` or ``Attribute`` with its name appears in a package
module outside its own body.  ``__init__.py`` only re-exports, so its
imports do not count as uses, and dunder methods are called by Python.
Likewise every name a module imports is used in that module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shrinktarget"

# looked up by name from outside the package, or kept for a planned use
ALLOWED = {
    "LimsupCylinderScheme.count",  # the benchmark tracer wraps it by name
    "count_sofic_words",  # the sofic counting kernel-to-be, and its tests' reference
}


def _definitions(tree: ast.Module, prefix: str = ""):
    """(qualified name, node) of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


def unreferenced() -> list[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    trees = {p.name: ast.parse(p.read_text()) for p in modules}
    uses: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            ident = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if ident is not None:
                uses.setdefault(ident, []).append((name, node.lineno))
    found = []
    for name, tree in trees.items():
        for qualname, node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(m != name or line not in own for m, line in uses.get(node.name, [])):
                found.append(qualname)
    return found


def test_every_definition_has_a_use_in_the_package():
    # an allow-list entry that gains a use, or leaves the package, leaves the list too
    assert set(unreferenced()) == ALLOWED


def unused_imports() -> list[str]:
    """"module: name" for each import of a package module that no ``Name`` reads."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}: {name}")
    return found


def test_every_import_has_a_use_in_its_module():
    assert unused_imports() == []
