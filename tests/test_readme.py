"""The README's code examples run as written."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {section}\n")
    match = re.compile(r"```python\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no python block under '## {section}'"
    return match.group(1)


def test_library_use_example_runs(capsys):
    exec(compile(_python_block("Library use"), str(README), "exec"), {})
    score, objective = (float(v) for v in capsys.readouterr().out.split())
    assert score > 0.0 and objective > 0.0
