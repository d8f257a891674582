"""The import boundary: only the exact solver's module loads scipy.

``gen``, ``solve --algo sa``, ``eval``, ``solve --algo brute`` and
``--version`` run on numpy alone; ``solve --algo exact`` loads scipy on
first use.  The commands run in a fresh interpreter, because this test
session has long since loaded scipy.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import vpadvisor

SRC = Path(vpadvisor.__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from vpadvisor.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

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
    ["--version"],
]
record = {"numpy_only": [[argv[0], run(argv), scipy_loaded()] for argv in commands]}
import vpadvisor
record["listed"] = [name for name in vpadvisor._LAZY if name in dir(vpadvisor)]
record["exact"] = [run(["solve", inst, "--algo", "exact", "--time-limit", "30"]),
                   bool(scipy_loaded())]
record["missing"] = [name for name in vpadvisor.__all__ if not hasattr(vpadvisor, name)]
from vpadvisor import solve_exact
import vpadvisor.mip
record["same"] = vpadvisor.solve_exact is vpadvisor.mip.solve_exact is solve_exact
sys.stdout.flush()
print("\\nRECORD " + json.dumps(record))
"""


def test_only_the_exact_solver_loads_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.rsplit("RECORD ", 1)[1])
    assert record["numpy_only"] == [
        ["gen", 0, []], ["solve", 0, []], ["eval", 0, []], ["solve", 0, []], ["--version", 0, []],
    ]
    assert record["exact"] == [0, True]
    # the package serves the exact solver's names through its module __getattr__
    assert record["listed"] == ["ExactConfig", "MipModel", "build_mip", "export_model",
                                "solve_exact"]
    assert record["missing"] == []
    assert record["same"] is True
