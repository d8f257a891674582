"""The README's code examples run as written."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from vpadvisor import cli

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


def _shell_commands() -> list:
    """The ``vpadvisor`` command lines of the README's ``sh`` blocks as
    argument lists: continuations joined, comments and ``VAR=value``
    prefixes dropped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.fullmatch(r"\w+=.*", words[0]):
                words.pop(0)
            if words[:1] == ["vpadvisor"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _shell_commands()
    assert commands  # the blocks were found
    for argv in commands:
        cli.build_parser().parse_args(argv)
