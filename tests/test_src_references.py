"""Every function, class and method in `src/isospec` has a caller there.

Code that only tests call belongs in the tests (see `oracles.py`) or
nowhere. The check is by name, from the syntax trees alone: a top-level
function or class counts as referenced where its name appears as a name
or an attribute, a method only where it appears as an attribute, and
neither counts inside its own definition or in `__init__.py`, whose
exports are not uses. Dunder methods are called implicitly and are not
listed. Matching by name cannot tell two classes' methods of one name
apart, so a dead method that shares its name with a used one passes.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isospec"

# module.name -> why it stays without a caller in src/
ALLOWED = {
    "cli.main": "the console script `isospec` (pyproject.toml)",
    "rmtsim.OrthogonalNet": "bench/spans.py wraps it",
    "rmtsim.OrthogonalNet.sample": "bench/spans.py wraps it",
}


def _names(node) -> Counter:
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))


def _attributes(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _definitions(tree):
    """(qualified name, node, is_method) of each top-level function and
    class and each class's non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item, True


def _unreferenced() -> set:
    """module.name of each definition nothing in src/ refers to."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    del trees["__init__"]
    names = sum((_names(t) for t in trees.values()), Counter())
    attributes = sum((_attributes(t) for t in trees.values()), Counter())
    out = set()
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree):
            bare = node.name
            uses = attributes[bare] - _attributes(node)[bare]
            if not is_method:
                uses += names[bare] - _names(node)[bare]
            if uses <= 0:
                out.add(f"{module}.{qualname}")
    return out


def test_every_definition_has_a_caller_in_src():
    extra = sorted(_unreferenced() - set(ALLOWED))
    assert not extra, f"only tests or nothing call these; delete or move them: {extra}"


def test_allowlist_names_existing_definitions():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined.update(
            f"{path.stem}.{q}" for q, _, _ in _definitions(ast.parse(path.read_text()))
        )
    assert not sorted(set(ALLOWED) - defined)
