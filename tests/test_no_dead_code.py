"""Every module-level function and class in the package has a caller in it.

A name counts as used when some ``ast.Name`` or ``ast.Attribute`` in
``src/`` refers to it from outside its own definition. Imports and
``__all__`` are not uses: a name that is only exported or only tested is
code that no pipeline stage runs.
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
