"""Every module-level function and class in the package has a caller in it,
and every module uses each name it imports.

A name counts as used when some ``ast.Name`` or ``ast.Attribute`` in
``src/`` refers to it from outside its own definition. Imports and
``__all__`` are not uses: a name that is only exported or only tested is
code that no pipeline stage runs. ``__init__.py`` files import to
re-export, and ``from __future__`` imports are directives, so neither
counts as an unused import.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "resiscan"

# Test hooks: public names that exist for the tests and the benchmark to
# call, each documented as such where it is defined.
TEST_HOOKS = {
    # The simulator's grab-outcome oracle, which the tests and the campaign
    # benchmark check every grab against.
    "simnet/scenario.py:expected_grab_outcomes",
}


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions_and_uses():
    """(module, name) of each top-level def; the uses of each name, with the
    (module, top-level def) they sit in."""
    defined: list[tuple[str, str]] = []
    uses: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, top.name))
                owner = top.name
            for node in ast.walk(top):
                name = _referenced_name(node)
                if name is not None:
                    uses.setdefault(name, set()).add((module, owner))
    return defined, uses


def test_every_top_level_definition_is_used_in_src():
    defined, uses = _definitions_and_uses()
    assert defined, f"no definitions found under {PACKAGE}"
    unused = [
        f"{module}:{name}"
        for module, name in defined
        if not (uses.get(name, set()) - {(module, name)})
        and f"{module}:{name}" not in TEST_HOOKS
    ]
    assert unused == []


def _unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unused += [f"{path.relative_to(PACKAGE)}: {name}" for name in _unused_imports(tree)]
    assert unused == []
