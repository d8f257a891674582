"""Workloads of the benchmark and the correctness gate on every command.

Each workload is one instance file, written by ``vpadvisor gen``, and
one CLI command that a run repeats.  The instances and the annealing
seed do not depend on the benchmark's ``--seed``: on the generated
instance the annealer's stall rule stops after 1,200 to 6,600
evaluations depending on its seed, and across generator seeds the
instance size and score move by a third, so a run that drew fresh
inputs would measure its random stream more than the program's speed
(see README.md).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Generator seed of the ROADMAP's reference instance (60 transactions,
#: 40 tables, 351 attributes at 4 sites).
GEN_SEED = 3
#: Annealing seed of the annealing workloads.
SA_SEED = 0
#: Optimal score of TPC-C at 2 sites and the exact solver's default gap.
TPCC_SCORE = 8449.1
EXACT_GAP = 1e-3

_SHAPE = ("--transactions", "60", "--tables", "40", "--max-attrs", "15", "--sites", "4")
_TINY_SHAPE = ("--transactions", "6", "--tables", "4", "--max-attrs", "4", "--sites", "2")


@dataclass(frozen=True)
class Workload:
    """One instance and the command a run repeats on it.

    ``kind`` is ``exact``, ``sa`` or ``export``; ``gen`` holds the
    ``vpadvisor gen`` flags after the output path, with ``{shape}``
    standing for the instance size.
    """

    name: str
    why: str
    kind: str
    gen: Tuple[str, ...]
    expect_score: Optional[float] = None

    def gen_argv(self, instance_path: str, tiny: bool = False) -> List[str]:
        flags: List[str] = []
        for flag in self.gen:
            flags.extend((_TINY_SHAPE if tiny else _SHAPE) if flag == "{shape}" else (flag,))
        return ["gen", instance_path, *flags]

    def argv(self, instance_path: str, out_path: str) -> List[str]:
        if self.kind == "export":
            return ["export", instance_path, "--fmt", "mps", "--out", out_path]
        argv = ["solve", instance_path, "--algo", self.kind, "--runs", "1",
                "--format", "structured", "--out", out_path]
        return argv + ["--seed", str(SA_SEED)] if self.kind == "sa" else argv


_GEN = ("--seed", str(GEN_SEED), "{shape}")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tpcc-exact",
            "exact solve of TPC-C at 2 sites: branch-and-bound LP calls do most of the work",
            "exact",
            ("--preset", "tpcc", "--sites", "2"),
            expect_score=TPCC_SCORE,
        ),
        Workload(
            "gen-sa-read",
            "annealing on a read-heavy generated instance: repairs and kernels do the work",
            "sa",
            _GEN + ("--update-percent", "10"),
        ),
        Workload(
            "gen-sa-write",
            "annealing on a write-heavy instance with latency pricing: same layers, write mix",
            "sa",
            _GEN + ("--update-percent", "50", "--p-latency", "100"),
        ),
        Workload(
            "gen-export",
            "MPS export of the full model of the read-heavy instance: model assembly and writing",
            "export",
            _GEN + ("--update-percent", "10"),
        ),
    )
}


class Gate:
    """Checks one command's result against the workload's instance.

    The instance is loaded and derived once, outside the timed region.
    :meth:`check` returns the problems found (empty when the command is
    correct) and the facts read from its output.
    """

    def __init__(self, workload: Workload, instance_path: str):
        from vpadvisor.fileio import load_instance
        from vpadvisor.workload import derive

        self.workload = workload
        self.instance = load_instance(instance_path)
        self.model = derive(self.instance)

    def check(self, argv: List[str], rc: int, stdout: str) -> Tuple[List[str], Dict[str, float]]:
        if rc != 0:
            return [f"exit code {rc}"], {}
        out_path = argv[argv.index("--out") + 1]
        if self.workload.kind == "export":
            return check_export(out_path, stdout), {}
        return self.check_solve(out_path, stdout)

    def check_solve(self, out_path: str, stdout: str) -> Tuple[List[str], Dict[str, float]]:
        from vpadvisor.errors import FormatError, InfeasibleLayoutError, ValidationError
        from vpadvisor.fileio import load_partitioning
        from vpadvisor.partitioning import check_feasible, evaluate

        try:
            report = json.loads(stdout)["report"]
            score = float(report["score"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable solve record: {exc}"], {}
        facts = {"score": score}
        if self.workload.kind == "sa" and report.get("wall_time"):
            facts["evals_per_s"] = report["node_count"] / report["wall_time"]
        try:
            part = load_partitioning(self.instance, out_path)
        except (OSError, FormatError, ValidationError, InfeasibleLayoutError) as exc:
            return [f"partitioning does not load: {exc}"], facts
        problems = list(check_feasible(self.instance, self.model, part))
        if not math.isfinite(score):
            problems.append(f"score {score} is not finite")
        if problems:
            return problems, facts  # evaluate refuses an infeasible layout
        priced = evaluate(self.instance, self.model, part).score
        if not math.isclose(priced, score, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"printed score {score!r} but evaluate prices {priced!r}")
        expect = self.workload.expect_score
        if expect is not None:
            if report.get("status") != "optimal":
                problems.append(f"status {report.get('status')!r}, expected 'optimal'")
            if abs(score - expect) > EXACT_GAP * expect:
                problems.append(f"score {score!r} is not {expect} within the gap {EXACT_GAP}")
        return problems, facts


_COUNTS = re.compile(r"(\d+) variables, (\d+) constraints")


def check_export(out_path: str, stdout: str) -> List[str]:
    """Compare the printed model size with the columns and rows of the
    written free-MPS file."""
    match = _COUNTS.search(stdout)
    if match is None:
        return ["export printed no variable and constraint counts"]
    printed = (int(match.group(1)), int(match.group(2)))
    try:
        written = mps_size(out_path)
    except OSError as exc:
        return [f"export file unreadable: {exc}"]
    if printed != written:
        return [f"printed {printed[0]} variables, {printed[1]} constraints; "
                f"file holds {written[0]} and {written[1]}"]
    return []


def mps_size(path: str) -> Tuple[int, int]:
    """Distinct columns and non-objective rows of a free-MPS file."""
    section = ""
    rows = 0
    columns = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith(" "):
                section = line.split()[0] if line.strip() else section
                continue
            fields = line.split()
            if section == "ROWS" and fields[0] != "N":
                rows += 1
            elif section == "COLUMNS" and fields[1] != "'MARKER'":
                columns.add(fields[0])
            elif section == "BOUNDS":
                columns.add(fields[2])
    return len(columns), rows
