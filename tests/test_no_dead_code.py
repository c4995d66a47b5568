"""Every module-level function, class and constant in the package is read
in it, every method, property and field of its classes is read in it, and
every module uses each name it imports.

A name counts as used when some ``ast.Name`` or ``ast.Attribute`` in
``src/`` reads it from outside the statements that define or assign it.
Imports and ``__all__`` are not uses: a name that is only exported or only
tested is code that no pipeline stage runs. Dunder names are exempt.
``__init__.py`` files import to re-export, and ``from __future__`` imports
are directives, so neither counts as an unused import. A method counts as
used when an ``ast.Attribute`` in ``src/`` reads its name outside the
method's own definition. A field, either a dataclass field or an attribute a
method assigns on ``self``, counts as read when an ``ast.Attribute`` in
``src/`` reads its name.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "resiscan"

# Test hooks: public names that exist for the tests and the benchmark to
# call, each with the reason it exists.
TEST_HOOKS = {
    "simnet/scenario.py:expected_grab_outcomes": (
        "the simulator's grab-outcome oracle, which the tests and the campaign"
        " benchmark check every grab against"
    ),
    "simnet/transport.py:SimTransport.inject": (
        "feeds forged or stray replies into a simulated scan"
    ),
    "simnet/services.py:SimServices.add_endpoint": (
        "adds an endpoint no scenario holds, for grab tests and the benchmark's"
        " micro-measurements"
    ),
    "simnet/services.py:SimServices.transcripts_for": (
        "the bytes a client sent one endpoint, which the tests check grabs are minimal by"
    ),
    "simnet/services.py:Transcript.data": "one transcript's bytes, for the same tests",
    "probe.py:ScanLog.send_duration_s": (
        "the send phase's wall time, which the benchmark's tracer and acceptance"
        " gate 6 read"
    ),
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ASSIGNMENTS = (ast.Assign, ast.AnnAssign, ast.AugAssign)


def _read_name(node: ast.AST) -> str | None:
    if isinstance(getattr(node, "ctx", None), ast.Store):
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bound_names(top: ast.stmt) -> list[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(top, DEFINITIONS):
        return [top.name]
    if not isinstance(top, ASSIGNMENTS):
        return []
    targets = top.targets if isinstance(top, ast.Assign) else [top.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unused(kinds: tuple[type, ...]) -> list[str]:
    """``module:name`` of each module-level binding made by a statement of
    one of ``kinds`` that nothing in ``src/`` reads outside the statements
    binding that name."""
    owners: dict[tuple[str, str], set[int]] = {}  # (module, name) -> binding statements
    reads: dict[str, set[tuple[str, int]]] = {}  # name -> (module, statement) reading it
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if isinstance(top, kinds):
                for name in _bound_names(top):
                    owners.setdefault((module, name), set()).add(top.lineno)
            for node in ast.walk(top):
                name = _read_name(node)
                if name is not None:
                    reads.setdefault(name, set()).add((module, top.lineno))
    assert owners, f"no bindings found under {PACKAGE}"
    return [
        f"{module}:{name}"
        for (module, name), lines in sorted(owners.items())
        if not (name.startswith("__") and name.endswith("__"))
        and f"{module}:{name}" not in TEST_HOOKS
        and not (reads.get(name, set()) - {(module, line) for line in lines})
    ]


def test_every_top_level_definition_is_used_in_src():
    assert _unused(DEFINITIONS) == []


def test_every_module_constant_is_read_in_src():
    assert _unused(ASSIGNMENTS) == []


def _unused_methods() -> list[str]:
    """``module:Class.name`` of each method or property that no attribute
    read in ``src/`` names outside the method's own lines."""
    methods: dict[tuple[str, str], tuple[str, int, int]] = {}  # -> (name, first, last line)
    reads: dict[str, set[tuple[str, int]]] = {}  # name -> (module, line) reading it
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[(module, f"{node.name}.{item.name}")] = (
                            item.name, item.lineno, item.end_lineno
                        )
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                reads.setdefault(node.attr, set()).add((module, node.lineno))
    assert methods, f"no methods found under {PACKAGE}"
    return [
        f"{module}:{qualname}"
        for (module, qualname), (name, first, last) in sorted(methods.items())
        if not (name.startswith("__") and name.endswith("__"))
        and f"{module}:{qualname}" not in TEST_HOOKS
        and all(m == module and first <= line <= last for m, line in reads.get(name, ()))
    ]


def test_every_method_is_used_in_src():
    assert _unused_methods() == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _unread_fields() -> list[str]:
    """``module:Class.name`` of each dataclass field and each ``self.<name> =``
    attribute of a class that no attribute read in ``src/`` names."""
    fields: set[tuple[str, str]] = set()  # (module, Class.name)
    reads: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and _is_dataclass(node):
                        fields.add((module, f"{node.name}.{item.target.id}"))
                    elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fields.update(
                            (module, f"{node.name}.{target.attr}")
                            for target in ast.walk(item)
                            if isinstance(target, ast.Attribute)
                            and isinstance(target.ctx, ast.Store)
                            and getattr(target.value, "id", None) == "self"
                        )
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                reads.add(node.attr)
    assert fields, f"no fields found under {PACKAGE}"
    return [
        f"{module}:{qualname}"
        for module, qualname in sorted(fields)
        if qualname.split(".")[1] not in reads and f"{module}:{qualname}" not in TEST_HOOKS
    ]


def test_every_field_is_read_in_src():
    assert _unread_fields() == []


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
