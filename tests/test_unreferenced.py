"""Every definition in the package is reached from the package itself.

A function, class or method that only tests (or nothing) call belongs in
the tests, not in ``src/``.  The scan is by name: a definition counts as
used when some ``Name`` or ``Attribute`` with its name is loaded in a
package module outside its own body.  A method counts only an
``Attribute``, so a local variable named like it is no use of it; a method
named like a field or an assigned attribute counts only a call, or (for a
property) any load; and a method named like one of a builtin type's
(``words.count``) counts no load, since the scan cannot tell the two apart.  ``__init__.py`` only re-exports, so its imports do not
count as uses, and dunder methods are called by Python.
Likewise every name a module imports is used in the scope that imports it:
an import inside a function is used only where that function reads it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shrinktarget"

# looked up by name from outside the package, or kept for a planned use
ALLOWED = {
    "LimsupCylinderScheme.count",  # the benchmark tracer wraps it by name (test_traced_methods_are_class_functions)
}


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node, whether a class body defines it) of every def
    and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node, isinstance(tree, ast.ClassDef)
            yield from _definitions(node, qualname + ".")
        else:
            yield from _definitions(node, prefix)


_PROPERTIES = {"property", "cached_property", "setter", "getter", "deleter"}

# x.name with one of these names may read a builtin's method, not the package's
_BUILTIN_METHODS = {
    name
    for t in (str, bytes, list, tuple, dict, set, frozenset, int, float, range, np.ndarray)
    for name in dir(t)
}


def _is_property(node: ast.AST) -> bool:
    names = (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None) for d in node.decorator_list)
    return not isinstance(node, ast.ClassDef) and not _PROPERTIES.isdisjoint(names)


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """The definitions in ``trees`` (module name -> tree) that no other code in them names.

    Only loads count: a field's annotation or an assignment binds a name,
    it does not use one.  A method is used only by an ``Attribute`` load
    ``x.name``: a ``Name`` load reads a variable.  A method that shares its
    name with data (a field annotated in a class body, or an attribute
    assigned as ``x.name = ...``) is used only by a call ``x.name(...)``,
    or, when it is a property, any load ``x.name``: an uncalled
    ``triple.phi`` reads the field, not the method.  A method named like a
    builtin type's method has no use: ``words.count(0)`` may read either.
    """
    data = set()
    calls = set()  # the Attribute nodes that are called
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                data.update(s.target.id for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                data.add(node.attr)
            elif isinstance(node, ast.Call):
                calls.add(node.func)
    uses: dict[str, list[tuple[str, int, bool, bool]]] = {}  # name -> (module, line, an Attribute, called)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append((name, node.lineno, False, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.attr, []).append((name, node.lineno, True, node in calls))
    found = []
    for name, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            shadowed = method and node.name in data and not _is_property(node)
            if (method and node.name in _BUILTIN_METHODS) or not any(
                (m != name or line not in own) and (attr or not method) and (called or not shadowed)
                for m, line, attr, called in uses.get(node.name, [])
            ):
                found.append(qualname)
    return found


def unreferenced() -> list[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return _unreferenced({p.name: ast.parse(p.read_text()) for p in modules})


def test_every_definition_has_a_use_in_the_package():
    # an allow-list entry that gains a use, or leaves the package, leaves the list too
    assert set(unreferenced()) == ALLOWED



def test_a_field_load_is_no_use_of_a_method():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class RateTriple:\n"
        "    phi: float\n"
        "class RateFunction:\n"
        "    def phi(self, n):\n"  # only triple.phi below: the field, not this
        "        return 1.0\n"
        "    def psi(self, n):\n"  # shares a name with spec.psi, but is called
        "        return 2.0\n"
        "    @property\n"
        "    def kind(self):\n"  # a property: its uncalled load is its use
        "        return 'rate'\n"
        "class Spec:\n"
        "    def __init__(self):\n"
        "        self.psi = None\n"
        "        self.kind = None\n"
        "def read(triple, rate, spec):\n"
        "    return triple.phi, rate.psi(1), spec.kind\n"
        "read(RateTriple(0.5), RateFunction(), Spec())\n"
    )
    assert _unreferenced({"rates.py": tree}) == ["RateFunction.phi"]


def test_a_variable_is_no_use_of_a_method():
    tree = ast.parse(
        "class Scheme:\n"
        "    def count(self, n):\n"  # only the local count below: a variable, not this
        "        return n\n"
        "    def counts(self, ns):\n"  # read as an attribute, though not called
        "        return ns\n"
        "def total(words, scheme):\n"
        "    count = len(words)\n"
        "    return count, scheme.counts\n"
        "total([], Scheme())\n"
    )
    assert _unreferenced({"oracle.py": tree}) == ["Scheme.count"]


def test_a_builtin_method_is_no_use_of_a_method():
    tree = ast.parse(
        "class Scheme:\n"
        "    def count(self, n):\n"  # only words.count below: a list's method, not this
        "        return n\n"
        "    def counts(self, ns):\n"
        "        return ns\n"
        "def total(words, scheme):\n"
        "    return words.count(0), scheme.counts(words)\n"
        "total([], Scheme())\n"
    )
    assert _unreferenced({"oracle.py": tree}) == ["Scheme.count"]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(scope: ast.AST):
    """The nodes evaluated in ``scope`` (the module or a def) itself: a nested
    def's body is its own scope, its decorators, defaults and annotations are not."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCTIONS):
            stack += [*node.decorator_list, node.args, *filter(None, [node.returns])]
        else:
            stack += ast.iter_child_nodes(node)


def _unused(tree: ast.Module) -> list[str]:
    """The names bound by imports in ``tree`` that no ``Name`` in their scope reads.

    A ``Name`` reads the import of the innermost enclosing def that imports
    that name, or else the module's.
    """
    parent: dict[ast.AST, ast.AST | None] = {tree: None}
    imports: dict[ast.AST, set[str]] = {}  # scope -> the names its imports bind
    names: list[tuple[ast.AST, str]] = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        imports[scope] = set()
        for node in _own_nodes(scope):
            if isinstance(node, _FUNCTIONS):
                parent[node] = scope
            elif isinstance(node, ast.Name):
                names.append((scope, node.id))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imports[scope].update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = set()
    for scope, name in names:
        while scope is not None and name not in imports[scope]:
            scope = parent[scope]
        used.add((scope, name))
    return [name for scope, bound in imports.items() for name in sorted(bound) if (scope, name) not in used]


def unused_imports() -> list[str]:
    """"module: name" for each import of a package module that no ``Name`` in its scope reads."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.name}: {name}" for name in _unused(ast.parse(path.read_text()))]
    return found


def test_a_function_import_is_used_only_by_its_function():
    tree = ast.parse(
        "import math\n"
        "def f():\n"
        "    import numpy as np\n"  # f never reads np: unused, though g reads an np
        "    return math.pi\n"
        "def g(np):\n"
        "    import json\n"
        "    def h():\n"
        "        return json.dumps(np)\n"  # a nested def reads g's import
        "    return h\n"
    )
    assert _unused(tree) == ["np"]


def test_every_import_has_a_use_in_its_module():
    assert unused_imports() == []


def _dataclass_fields(tree: ast.AST):
    """"Class.field" and the field's name, for each field annotated in a ``@dataclass`` body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
            for d in (getattr(d, "func", d) for d in node.decorator_list)
        ):
            for s in node.body:
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name):
                    yield f"{node.name}.{s.target.id}", s.target.id


def _unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """The dataclass fields in ``trees`` that no load reads outside every ``__post_init__``.

    The match is by name, as for a method in ``_unreferenced``: an
    ``Attribute`` load ``x.name`` anywhere else counts, a ``Name`` load
    reads a variable.  A field that only its validator reads restates what
    the code that builds it already knows.
    """
    validating = {
        id(n)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, _FUNCTIONS) and node.name == "__post_init__"
        for n in ast.walk(node)
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in validating:
                read.add(node.attr)
    return [qualname for tree in trees.values() for qualname, name in _dataclass_fields(tree) if name not in read]


def unread_fields() -> list[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return _unread_fields({p.name: ast.parse(p.read_text()) for p in modules})


def test_a_validator_is_no_reader_of_a_field():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Plan:\n"
        "    blocks: tuple\n"
        "    alpha: float\n"  # only __post_init__ reads it
        "    eta: float\n"  # a local variable named like it is no reader
        "    def __post_init__(self):\n"
        "        assert self.alpha > 0 and self.eta > 0\n"
        "class Loose:\n"
        "    note: str\n"  # not a dataclass: a plain annotation
        "def make(eta):\n"
        "    return Plan(blocks=(), alpha=eta, eta=eta).blocks\n"
    )
    assert _unread_fields({"oracle.py": tree}) == ["Plan.alpha", "Plan.eta"]


def test_every_field_is_read_outside_a_validator():
    assert unread_fields() == []


SPANS = PACKAGE.parents[1] / "perfbench" / "spans.py"


def _module_constant(path: Path, name: str):
    """The literal value a module assigns to ``name``, read without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_traced_methods_are_class_functions():
    # the benchmark tracer wraps each through cls.__dict__[meth]: a renamed
    # method would fail only in a traced benchmark run
    methods = _module_constant(SPANS, "METHODS")
    assert methods
    for short, quals in methods.items():
        module = importlib.import_module(f"shrinktarget.{short}")
        for qual in quals:
            cls_name, meth = qual.split(".")
            assert inspect.isfunction(vars(getattr(module, cls_name)).get(meth)), qual
