"""An offline unused-import check over the package modules."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src" / "vpadvisor").glob("*.py")
    if path.name != "__init__.py"
)


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
