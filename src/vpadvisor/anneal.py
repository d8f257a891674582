"""Simulated-annealing heuristic for the partitioning problem.

The annealer keeps one feasible layout and repeatedly perturbs it,
alternating between two repair modes: with the transaction assignment
held fixed the replica sets are rebuilt greedily, and with the replica
sets held fixed the transactions are re-assigned greedily.  Moves are
accepted with the Metropolis rule on the weighted score, the temperature
follows a geometric schedule, and the search freezes when the
temperature collapses or the best score stalls.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from . import kernels
from .errors import InfeasibleLayoutError
from .grouping import order_transactions_by_load
from .partitioning import Partitioning, _folded_score, evaluate
from .report import STATUS_FEASIBLE_TIME_LIMIT, SolveReport
from .workload import CostModel, Instance, derive


@dataclass(frozen=True)
class SaConfig:
    """Tuning knobs for :func:`solve_sa`.

    ``inner_loops`` candidate moves are tried per temperature step,
    the temperature is multiplied by ``cooling`` after each step, and a
    move perturbs ``move_fraction`` of the transactions and of the
    attributes (rounded up).  The search stops when the temperature
    drops below ``freeze_temperature_ratio`` times the initial
    temperature or when ``freeze_stall_loops`` consecutive temperature
    steps pass without improving the best score.  A single candidate
    construction longer than ``iteration_time_limit`` seconds is
    abandoned instead of entering the acceptance test.
    """

    inner_loops: int = 50
    cooling: float = 0.9
    move_fraction: float = 0.1
    freeze_temperature_ratio: float = 1e-6
    freeze_stall_loops: int = 20
    iteration_time_limit: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.inner_loops < 1:
            raise ValueError("inner_loops must be at least 1")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must lie strictly between 0 and 1")
        if not 0.0 < self.move_fraction <= 1.0:
            raise ValueError("move_fraction must lie in (0, 1]")
        if self.freeze_temperature_ratio <= 0.0:
            raise ValueError("freeze_temperature_ratio must be positive")
        if self.freeze_stall_loops < 1:
            raise ValueError("freeze_stall_loops must be at least 1")
        if self.iteration_time_limit <= 0.0:
            raise ValueError("iteration_time_limit must be positive")


@dataclass(frozen=True)
class SaTrace:
    """Per-temperature-step telemetry of one annealing run."""

    temperatures: Tuple[float, ...]
    best_scores: Tuple[float, ...]
    current_scores: Tuple[float, ...]
    accepted_moves: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.temperatures)

    def as_table(self) -> str:
        header = f"{'step':>4}  {'temperature':>14}  {'best':>14}  {'current':>14}  {'accepted':>8}"
        lines = [header]
        for i, (tau, best, cur, acc) in enumerate(
            zip(self.temperatures, self.best_scores, self.current_scores, self.accepted_moves)
        ):
            lines.append(f"{i:>4}  {tau:>14.6g}  {best:>14.6g}  {cur:>14.6g}  {acc:>8d}")
        return "\n".join(lines)


def initial_temperature(score: float, acceptance: float = 0.5, worsening: float = 0.05) -> float:
    """Temperature at which a move worsening ``score`` by the given
    fraction is accepted with probability ``acceptance``.

    With the defaults a 5% degradation is accepted half the time.
    """
    if score <= 0.0:
        raise ValueError("initial temperature needs a positive reference score")
    if not 0.0 < acceptance < 1.0:
        raise ValueError("acceptance probability must lie strictly between 0 and 1")
    if worsening <= 0.0:
        raise ValueError("worsening fraction must be positive")
    return -worsening * score / math.log(acceptance)


def accept_move(delta: float, temperature: float, rng: np.random.Generator) -> bool:
    """Metropolis acceptance: improvements always pass, degradations
    pass with probability ``exp(-delta / temperature)``.

    The random draw happens only for strict degradations, so callers
    relying on a deterministic stream see one draw per worsening move.
    """
    if delta <= 0.0:
        return True
    if temperature <= 0.0:
        return False
    return float(rng.random()) < math.exp(-delta / temperature)


def perturb_transactions(
    txn_site: np.ndarray,
    site_count: int,
    move_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Move a random ``move_fraction`` of the transactions (at least
    one, rounded up) to uniformly drawn *different* sites.

    With one site there is no different site and the assignment is
    returned unchanged (as a copy).
    """
    n_txns = txn_site.shape[0]
    moved = txn_site.copy()
    count = min(n_txns, math.ceil(move_fraction * n_txns))
    chosen = rng.choice(n_txns, size=count, replace=False)
    if site_count <= 1:
        return moved
    for t in chosen:
        draw = int(rng.integers(0, site_count - 1))
        moved[t] = draw if draw < moved[t] else draw + 1
    return moved


def perturb_replicas(
    replicas: np.ndarray,
    move_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Give a random ``move_fraction`` of the attributes (at least one,
    rounded up) one additional uniformly drawn site each.

    Attributes already present on every site are left alone.  Only
    additions are made, so any layout feasible with the old replica
    sets stays feasible with the new ones.
    """
    n_attrs, n_sites = replicas.shape
    grown = replicas.copy()
    count = min(n_attrs, math.ceil(move_fraction * n_attrs))
    chosen = rng.choice(n_attrs, size=count, replace=False)
    for a in chosen:
        missing = np.flatnonzero(~grown[a])
        if missing.size == 0:
            continue
        grown[a, int(rng.integers(0, missing.size))] = True
    return grown


def solve_subproblem_fix_transactions(
    model: CostModel,
    txn_site: np.ndarray,
    site_count: int,
    cost_weight: float,
) -> np.ndarray:
    """Best-effort replica sets for a fixed transaction assignment.

    Every attribute read by a transaction is forced onto that
    transaction's site; further replicas are added greedily while they
    lower the weighted score, and unread attributes land on the site
    where they are cheapest.
    """
    return kernels.greedy_replicas(
        np.ascontiguousarray(txn_site, dtype=np.int64),
        model.txn_reads,
        model.coloc_cost,
        model.replica_cost,
        model.coloc_load,
        model.replica_load,
        float(cost_weight),
        int(site_count),
    )


def solve_subproblem_fix_replicas(
    model: CostModel,
    replicas: np.ndarray,
    cost_weight: float,
    order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Best-effort transaction assignment for fixed replica sets.

    Transactions are placed one at a time, heaviest read weight first,
    each on the feasible site with the lowest weighted-score increase.
    Raises :class:`InfeasibleLayoutError` when some transaction cannot
    read all of its attributes on any single site.
    """
    if order is None:
        weights = model.coloc_load.sum(axis=0)
        ids = np.arange(weights.shape[0], dtype=np.int64)
        order = np.lexsort((ids, -weights)).astype(np.int64)
    txn_site = kernels.assign_transactions(
        np.ascontiguousarray(replicas, dtype=np.bool_),
        model.txn_reads,
        model.coloc_cost,
        model.coloc_load,
        model.replica_load,
        float(cost_weight),
        np.ascontiguousarray(order, dtype=np.int64),
    )
    if np.any(txn_site < 0):
        stuck = [int(t) for t in np.flatnonzero(txn_site < 0)]
        raise InfeasibleLayoutError(
            [
                f"transaction {t} reads attributes that no single site holds together"
                for t in stuck
            ]
        )
    return txn_site


def solve_sa(
    instance: Instance,
    config: Optional[SaConfig] = None,
    model: Optional[CostModel] = None,
) -> Tuple[SolveReport, SaTrace]:
    """Run one simulated-annealing search and report the best layout.

    The run is deterministic for a given instance and ``config.seed``.
    The report's status is always ``feasible-time-limit``: the annealer
    proves no bound, so ``bound_gap`` is ``inf``.
    """
    if config is None:
        config = SaConfig()
    if model is None:
        model = derive(instance)
    rng = np.random.default_rng(config.seed)
    started = time.perf_counter()

    n_txns = instance.transaction_count
    n_attrs = instance.attribute_count
    n_sites = instance.site_count
    order = order_transactions_by_load(instance, model)

    # Initial solution: random transaction sites, repaired replica sets.
    cur_x = rng.integers(0, n_sites, size=n_txns).astype(np.int64)
    cur_y = solve_subproblem_fix_transactions(model, cur_x, n_sites, instance.cost_weight)
    cur_score = _folded_score(instance, model, cur_x, cur_y).score

    best_x, best_y, best_score = cur_x, cur_y, cur_score

    if best_score > 0.0:
        tau0 = initial_temperature(best_score)
    else:
        tau0 = 1.0
    tau = tau0
    freeze_at = config.freeze_temperature_ratio * tau0

    fix_transactions = True
    stall = 0
    evaluations = 0
    temperatures: List[float] = []
    best_scores: List[float] = []
    current_scores: List[float] = []
    accepted_moves: List[int] = []

    while tau > freeze_at and stall < config.freeze_stall_loops:
        accepted = 0
        best_before = best_score
        for _ in range(config.inner_loops):
            move_started = time.perf_counter()
            pert_x = perturb_transactions(cur_x, n_sites, config.move_fraction, rng)
            pert_y = perturb_replicas(cur_y, config.move_fraction, rng)
            if fix_transactions:
                cand_x = pert_x
                cand_y = solve_subproblem_fix_transactions(
                    model, cand_x, n_sites, instance.cost_weight
                )
            else:
                cand_y = pert_y
                cand_x = solve_subproblem_fix_replicas(
                    model, cand_y, instance.cost_weight, order
                )
            fix_transactions = not fix_transactions
            evaluations += 1
            cand_score = _folded_score(instance, model, cand_x, cand_y).score
            if time.perf_counter() - move_started > config.iteration_time_limit:
                continue
            delta = cand_score - cur_score
            if accept_move(delta, tau, rng):
                cur_x, cur_y, cur_score = cand_x, cand_y, cand_score
                accepted += 1
                if cur_score < best_score:
                    best_x, best_y, best_score = cur_x, cur_y, cur_score
        temperatures.append(tau)
        best_scores.append(best_score)
        current_scores.append(cur_score)
        accepted_moves.append(accepted)
        stall = stall + 1 if best_score >= best_before else 0
        tau *= config.cooling

    partitioning = Partitioning(txn_site=best_x, replica=best_y)
    breakdown = evaluate(instance, model, partitioning)
    report = SolveReport(
        partitioning=partitioning,
        objective=breakdown.objective,
        score=breakdown.score,
        bound_gap=math.inf,
        wall_time=time.perf_counter() - started,
        node_count=evaluations,
        status=STATUS_FEASIBLE_TIME_LIMIT,
    )
    trace = SaTrace(
        temperatures=tuple(temperatures),
        best_scores=tuple(best_scores),
        current_scores=tuple(current_scores),
        accepted_moves=tuple(accepted_moves),
    )
    return report, trace


def solve_sa_best_of(
    instance: Instance,
    runs: int,
    config: Optional[SaConfig] = None,
) -> Tuple[SolveReport, Tuple[SaTrace, ...]]:
    """Run ``runs`` independent annealing searches one after another and
    keep the best result.

    Run ``i`` uses seed ``config.seed + i``; the returned report is the
    one with the lowest score (ties broken by the lower run index).  Its
    ``wall_time`` is the total time of all runs and its ``node_count``
    the total number of evaluations.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if config is None:
        config = SaConfig()
    model = derive(instance)
    started = time.perf_counter()
    results = [
        solve_sa(instance, replace(config, seed=config.seed + i), model=model)
        for i in range(runs)
    ]
    best_index = min(range(runs), key=lambda i: (results[i][0].score, i))
    report = replace(
        results[best_index][0],
        wall_time=time.perf_counter() - started,
        node_count=sum(r.node_count for r, _ in results),
    )
    return report, tuple(trace for _, trace in results)
