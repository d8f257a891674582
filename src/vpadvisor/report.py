"""Solver result reporting shared by the exact and heuristic solvers."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .partitioning import Partitioning

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE_TIME_LIMIT = "feasible-time-limit"
STATUS_NO_SOLUTION_TIME_LIMIT = "no-solution-time-limit"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run.

    ``bound_gap`` is the relative distance between the returned score and
    the best proven lower bound (``inf`` when the solver provides no
    bound, as the annealer does).  ``status`` is ``optimal`` when the
    score is proven within the configured gap, ``feasible-time-limit``
    when a solution is returned without proof, and
    ``no-solution-time-limit`` when the solver stopped empty-handed.
    ``node_count`` counts the branch-and-cut nodes HiGHS explored for
    the exact solver (0 when no time was left to start it) and
    candidate evaluations for the annealer.
    """

    partitioning: Optional[Partitioning]
    objective: float
    score: float
    bound_gap: float
    wall_time: float
    node_count: int
    status: str
