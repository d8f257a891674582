"""Offline checks over the package modules: no unused imports, no
function, class, method or property that nothing references or that
only the tests reference, and no class field that the program never
reads."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for path in (ROOT / "src" / "vpadvisor").glob("*.py") if path.name != "__init__.py"
)
# Where a definition may be referenced.  The package's __init__ only
# re-exports names, which does not count as a use.
REFERRING = sorted(
    path
    for tree in ("src", "tests", "perfbench")
    for path in (ROOT / tree).rglob("*.py")
    if path != ROOT / "src" / "vpadvisor" / "__init__.py"
)
# Where a field must be read: a field that only tests read is computed
# for nobody.
PROGRAM = sorted(path for tree in ("src", "perfbench") for path in (ROOT / tree).rglob("*.py"))
# Where a definition must be referenced unless the package exports it:
# library code that only the tests call serves nobody who installs it.
PROGRAM_REFERRING = [path for path in REFERRING if ROOT / "tests" not in path.parents]
# The MipModel index helpers address single columns of the full model;
# the tests lift layouts into it through them (acceptance criterion 3).
# SaTrace.as_table is the program's only reader of the trace's
# best_scores and current_scores, which the annealing trajectory digests
# pin; without it test_module_fields_are_all_read fails on both fields.
# MipModel.column_names and row_names are the documented accessors of
# the exported MipModel's names (README "Library use"); both export
# writers lay the byte arrays behind them directly, so the program
# itself calls neither.
TEST_ONLY_ALLOWED = {"x_index", "y_index", "u_index", "psi_index", "as_table",
                     "column_names", "row_names"}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "from typing import List, Optional",
        "x: Optional[int] = None",
    ])
    assert _unused_imports(source) == ["line 2: os", "line 3: List"]


def _definitions(source: str) -> list[tuple[int, str]]:
    """Functions, classes, methods and properties, dunders excepted."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def _references(source: str) -> set[str]:
    """Names a source reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _unreferenced(source: str, references: set[str]) -> list[str]:
    return [f"line {line}: {name}" for line, name in _definitions(source) if name not in references]


@pytest.fixture(scope="module")
def references() -> set[str]:
    return set().union(*(_references(path.read_text(encoding="utf-8")) for path in REFERRING))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_defines_only_what_is_referenced(path, references):
    assert _unreferenced(path.read_text(encoding="utf-8"), references) == []


def test_check_flags_an_unreferenced_definition():
    source = "\n".join([
        "class Report:",
        "    def __init__(self): pass",
        "    @property",
        "    def score(self): return 1",
        "    def spare(self): return 2",
        "def helper(): return Report().score",
        "def unused(): return helper()",
    ])
    references = _references(source) | _references("from pkg import helper")
    assert _unreferenced(source, references) == ["line 5: spare", "line 7: unused"]


def _exported(source: str) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _test_only(source: str, program_references: set[str], exported: set[str]) -> list[str]:
    """Definitions the program never references and the package does
    not export: only tests can reach them."""
    return [
        f"line {line}: {name}"
        for line, name in _definitions(source)
        if name not in program_references | exported | TEST_ONLY_ALLOWED
    ]


@pytest.fixture(scope="module")
def program_references() -> set[str]:
    return set().union(*(_references(path.read_text(encoding="utf-8"))
                         for path in PROGRAM_REFERRING))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_defines_nothing_only_tests_use(path, program_references):
    exported = _exported((ROOT / "src" / "vpadvisor" / "__init__.py").read_text(encoding="utf-8"))
    assert _test_only(path.read_text(encoding="utf-8"), program_references, exported) == []


def test_check_flags_a_test_only_definition():
    source = "\n".join([
        "class Trace:",
        "    def __len__(self): return 0",
        "    def summary(self): return ''",
        "    def x_index(self): return 0",
        "def solve(): return Trace()",
        "def price(): return len(solve())",
        "def spare(): return price()",
    ])
    program = _references(source) | _references("from pkg import solve")
    assert _exported('__all__ = ["spare"]\nx = 1') == {"spare"}
    assert _test_only(source, program, {"spare"}) == ["line 3: summary"]


def _fields(source: str) -> list[tuple[int, str, str]]:
    """Annotated fields of every class, as (line, class, field)."""
    return sorted(
        (stmt.lineno, node.name, stmt.target.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    )


def _attribute_reads(source: str) -> set[str]:
    """Names a source reads as an attribute (``obj.name``), leaving out
    the attributes it only calls (``obj.name()``), which read no field."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and id(node) not in called
    }


def _unread(source: str, reads: set[str]) -> list[str]:
    return [f"line {line}: {cls}.{name}" for line, cls, name in _fields(source) if name not in reads]


@pytest.fixture(scope="module")
def attribute_reads() -> set[str]:
    return set().union(*(_attribute_reads(path.read_text(encoding="utf-8")) for path in PROGRAM))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_fields_are_all_read(path, attribute_reads):
    assert _unread(path.read_text(encoding="utf-8"), attribute_reads) == []


def test_check_flags_an_unread_field():
    source = "\n".join([
        "class Model:",
        "    kept: int",
        "    stored: int",
        "    written: int",
        "    limit = 3",
        "def use(model):",
        "    model.written = model.kept + Model.limit",
        "    return model.stored()",
    ])
    assert _unread(source, _attribute_reads(source)) == [
        "line 3: Model.stored", "line 4: Model.written"]
