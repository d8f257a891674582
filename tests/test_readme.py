"""The README's code examples run as written, and the names it points
to exist."""
from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import vpadvisor
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


def _entry_point_names() -> list:
    """``(modules, name)`` for every backticked ``name()`` in the bullets
    under "Key entry points", where a bullet opens with its module(s)."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Key entry points:\n")
    section = text[start:text.index("\n## ", start)]
    names = []
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        head, _, body = bullet.partition(" — ")
        modules = re.findall(r"`(\w+)`", head)
        for name in re.findall(r"`([\w.]+)\(\)`", body):
            names.append((modules, name))
    return names


def _resolve(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_readme_entry_point_names_exist():
    names = _entry_point_names()
    assert len(names) > 10  # the bullets were found
    missing = [
        name for modules, name in names
        if not _resolve(vpadvisor, name) and not any(
            _resolve(importlib.import_module(f"vpadvisor.{m}"), name) for m in modules)
    ]
    assert missing == []
