"""The import boundary: only the exact solver's module loads scipy's
solvers.

``gen``, ``solve --algo sa``, ``eval``, ``solve --algo brute``,
``compare --algo brute`` and ``--version`` run on numpy alone.
``export`` and the full program's names (``MipModel``, ``build_mip``,
``export_model``) load ``scipy.sparse`` but not ``scipy.optimize``.
``solve --algo exact`` and ``compare --algo exact`` load
``scipy.optimize`` before their clocks start, so the import never eats
into ``--time-limit``.  The commands run in a fresh interpreter, because
this test session has long since loaded scipy.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import vpadvisor

SRC = Path(vpadvisor.__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from vpadvisor.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def solvers_loaded():
    return any(m == "scipy.optimize" or m.startswith("scipy.optimize.") for m in sys.modules)

def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # --version exits through argparse
        return exc.code

inst, layout = sys.argv[2] + "/inst.json", sys.argv[2] + "/layout.json"
commands = [
    ["gen", inst, "--seed", "1", "--transactions", "2", "--tables", "1", "--max-attrs", "3",
     "--sites", "2"],
    ["solve", inst, "--algo", "sa", "--seed", "0", "--out", layout],
    ["eval", inst, layout],
    ["solve", inst, "--algo", "brute"],
    ["compare", inst, "--mode", "replication", "--algo", "brute"],
    ["--version"],
]
record = {"numpy_only": [[argv[0], run(argv), scipy_loaded()] for argv in commands]}
import vpadvisor
record["lazy"] = list(vpadvisor._LAZY)
record["listed"] = [name for name in vpadvisor._LAZY if name in dir(vpadvisor)]
record["listed_loads"] = scipy_loaded()
record["export"] = [
    [fmt, run(["export", inst, "--fmt", fmt, "--out", sys.argv[2] + "/model." + fmt]),
     solvers_loaded(), "scipy.sparse" in sys.modules]
    for fmt in ("mps", "lp")
]
from vpadvisor import MipModel, build_mip, export_model
record["program_loads_solvers"] = solvers_loaded()
record["exact"] = [run(["solve", inst, "--algo", "exact", "--time-limit", "30"]),
                   solvers_loaded()]
record["missing"] = [name for name in vpadvisor.__all__ if not hasattr(vpadvisor, name)]
from vpadvisor import solve_exact
import vpadvisor.mip, vpadvisor.program
record["same"] = vpadvisor.solve_exact is vpadvisor.mip.solve_exact is solve_exact
record["same_program"] = all(
    getattr(vpadvisor, name) is getattr(vpadvisor.mip, name) is getattr(vpadvisor.program, name)
    is given
    for name, given in (("MipModel", MipModel), ("build_mip", build_mip),
                        ("export_model", export_model))
)
sys.stdout.flush()
print("\\nRECORD " + json.dumps(record))
"""

# Runs one command and notes, at every clock read that vpadvisor code
# makes, whether scipy.optimize is loaded by then.
_CLOCK_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from vpadvisor.cli import main

reads = []
clock = time.perf_counter

def perf_counter():
    if sys._getframe(1).f_globals.get("__name__", "").startswith("vpadvisor"):
        reads.append("scipy.optimize" in sys.modules)
    return clock()

time.perf_counter = perf_counter
rc = main(sys.argv[2:])
sys.stdout.flush()
print("\\nRECORD " + json.dumps({"rc": rc, "reads": reads}))
"""


def _probe(code: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.rsplit("RECORD ", 1)[1])


def test_only_the_exact_solver_loads_scipy(tmp_path):
    record = _probe(_PROBE, str(tmp_path))
    assert record["numpy_only"] == [
        ["gen", 0, []], ["solve", 0, []], ["eval", 0, []], ["solve", 0, []], ["compare", 0, []],
        ["--version", 0, []],
    ]
    # export builds sparse arrays but never loads the solvers
    assert record["export"] == [["mps", 0, False, True], ["lp", 0, False, True]]
    assert record["exact"] == [0, True]
    # the package serves the exact solver's and the full program's names
    # through its module __getattr__
    assert record["lazy"] == ["ExactConfig", "MipModel", "build_mip", "export_model",
                              "solve_exact"]
    assert record["listed"] == record["lazy"]
    assert record["listed_loads"] == []  # listing the names does not load them
    assert record["program_loads_solvers"] is False
    assert record["missing"] == []
    assert record["same"] is True
    assert record["same_program"] is True


@pytest.mark.parametrize("command", [
    ["solve", "--algo", "exact", "--time-limit", "30"],
    ["compare", "--mode", "replication", "--algo", "exact", "--time-limit", "30"],
], ids=["solve", "compare"])
def test_exact_commands_load_the_solver_before_their_clocks(command, tmp_path):
    inst = str(tmp_path / "inst.json")
    gen = _probe(_CLOCK_PROBE, "gen", inst, "--seed", "1", "--transactions", "3", "--tables", "2",
                 "--max-attrs", "3", "--sites", "2")
    assert gen["rc"] == 0
    record = _probe(_CLOCK_PROBE, command[0], inst, *command[1:])
    assert record["rc"] == 0
    assert record["reads"] and all(record["reads"])
