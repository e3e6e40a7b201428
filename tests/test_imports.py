"""No module of the engine imports a name it never uses, nor defines one
nothing names, and the README lists exactly the record kinds it writes.

A name counts as used when the module reads it anywhere (including in
annotations) or re-exports it through ``__all__``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "eventual"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_module_imports_an_unused_name():
    found = {
        path.name: unused_imports(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def imported_modules(tree: ast.Module) -> set[str]:
    """Every ``eventual`` module a module imports, by its full name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "eventual" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return {name for name in out if name == "eventual" or name.startswith("eventual.")}


def test_only_the_simulator_s_clients_import_it():
    # the runtime (``eventual.node``) and everything below it run without a
    # simulator; the package namespace re-exports it
    allowed = {"sim.py", "scenario.py", "cli.py", "__init__.py"}
    importers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "eventual.sim" in imported_modules(ast.parse(path.read_text()))
    }
    assert importers - allowed == set()
    assert importers >= {"scenario.py", "cli.py"}  # the check sees relative imports


def test_every_definition_is_named_somewhere_besides_its_definition():
    # a function, method or class of the engine (dunders aside) that no
    # code, test or benchmark names is code nothing calls
    defined = Counter(
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    words = Counter(
        word
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text())
    )
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []


def recorded_kinds() -> set[str]:
    """The kind of every ``.record(tick, kind, ...)`` call in the engine."""
    return {
        node.args[1].value
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "record"
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
    }


def test_the_readme_lists_exactly_the_record_kinds_the_engine_writes():
    readme = (ROOT / "README.md").read_text()
    listed = set(re.findall(r"^  - `(\w+)` \{", readme, re.MULTILINE))
    kinds = recorded_kinds()
    assert kinds and kinds == listed
