"""Solver result reporting shared by the exact and heuristic solvers."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .partitioning import CostBreakdown, Partitioning

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE_TIME_LIMIT = "feasible-time-limit"
STATUS_NO_SOLUTION_TIME_LIMIT = "no-solution-time-limit"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run.

    ``breakdown`` is :func:`~vpadvisor.partitioning.evaluate`'s pricing
    of ``partitioning`` on the solved instance, or ``None`` when the
    solver returned no layout; ``objective`` and ``score`` read from it
    (NaN without a layout).  ``bound_gap`` is the relative distance
    between the score and the best proven lower bound (``inf`` when the
    solver provides no bound, as the annealer does).  ``status`` is
    ``optimal`` when the score is proven within the configured gap,
    ``feasible-time-limit`` when a solution is returned without proof,
    and ``no-solution-time-limit`` when the solver stopped
    empty-handed.  ``node_count`` counts the branch-and-cut nodes HiGHS
    explored for the exact solver, over its re-solve and its main run
    (0 when no time was left to start either), candidate evaluations for
    the annealer, and the nominal layout
    count for exhaustive enumeration.
    """

    partitioning: Optional[Partitioning]
    breakdown: Optional[CostBreakdown]
    bound_gap: float
    wall_time: float
    node_count: int
    status: str

    @property
    def objective(self) -> float:
        return math.nan if self.breakdown is None else self.breakdown.objective

    @property
    def score(self) -> float:
        return math.nan if self.breakdown is None else self.breakdown.score
