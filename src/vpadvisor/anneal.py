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

from .errors import InfeasibleLayoutError
from .grouping import order_transactions_by_load
from .partitioning import Partitioning, _folded_score, evaluate
from .report import STATUS_FEASIBLE_TIME_LIMIT, SolveReport
from .workload import CostModel, Instance, derive


# The fixed schedule; see :class:`SaConfig`.
_COOLING = 0.9
_MOVE_FRACTION = 0.1
_FREEZE_TEMPERATURE_RATIO = 1e-6


@dataclass(frozen=True)
class SaConfig:
    """Tuning knobs for :func:`solve_sa`.

    ``inner_loops`` candidate moves are tried per temperature step, the
    temperature is multiplied by ``_COOLING`` after each step, and a move
    perturbs ``_MOVE_FRACTION`` of the transactions and of the attributes
    (rounded up).  The search stops when the temperature drops below
    ``_FREEZE_TEMPERATURE_RATIO`` times the initial temperature, when
    ``freeze_stall_loops`` consecutive temperature steps pass without
    improving the best score, or when ``time_limit`` seconds of wall time
    have passed (checked before each candidate move; the default sets no
    limit).  The three schedule constants are fixed.
    """

    inner_loops: int = 50
    freeze_stall_loops: int = 20
    time_limit: float = math.inf
    seed: int = 0

    def __post_init__(self) -> None:
        if self.inner_loops < 1:
            raise ValueError("inner_loops must be at least 1")
        if self.freeze_stall_loops < 1:
            raise ValueError("freeze_stall_loops must be at least 1")
        if not self.time_limit >= 0.0:
            raise ValueError("time_limit must be nonnegative")


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


def initial_temperature(score: float) -> float:
    """Temperature at which a move worsening ``score`` by 5% is accepted
    half the time."""
    if score <= 0.0:
        raise ValueError("initial temperature needs a positive reference score")
    return -0.05 * score / math.log(0.5)


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
    # one call draws what one call per transaction would, in the same order
    draws = rng.integers(0, site_count - 1, size=count)
    moved[chosen] = draws + (draws >= moved[chosen])
    return moved


def perturb_replicas(
    replicas: np.ndarray,
    move_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Give a random ``move_fraction`` of the attributes (at least one,
    rounded up) one more replica each.

    The site index is a uniform draw below the number of sites the
    attribute lacks: the move may land on a site the attribute already
    holds (no change), and sites at or above that count are never drawn.
    Attributes already present on every site are left
    alone.  Only additions are made, so any layout feasible with the old
    replica sets stays feasible with the new ones.
    """
    n_attrs, n_sites = replicas.shape
    grown = replicas.copy()
    count = min(n_attrs, math.ceil(move_fraction * n_attrs))
    chosen = rng.choice(n_attrs, size=count, replace=False)
    free = n_sites - replicas[chosen].sum(axis=1)
    # one call draws what one call per attribute would, in the same order
    grown[chosen[free > 0], rng.integers(0, free[free > 0])] = True
    return grown


# Each repair picks, item by item, the site with the lowest increase of
# the weighted score, ``lam * cost + (1 - lam) * max(loads[s] + inc - m, 0)``
# with ``m`` the current peak load, the lowest site winning ties.  The
# choice among a handful of sites loops over them in plain Python on
# lists: numpy's per-call overhead on 4-element arrays costs far more
# than the arithmetic.


def solve_subproblem_fix_transactions(
    model: CostModel,
    txn_site: np.ndarray,
    site_count: int,
    cost_weight: float,
) -> np.ndarray:
    """Best-effort replica sets for a fixed transaction assignment.

    Every attribute read by a transaction is forced onto that
    transaction's site; further replicas are added greedily, in
    ascending marginal-score order, while they lower the weighted score,
    and attributes still unplaced land on the site where they are
    cheapest.  These greedy choices do not price the write-latency
    charge; the annealer's Metropolis score and the final
    :func:`evaluate` do.

    An extra replica needs a negative weighted base cost.  The folded
    coefficients of a valid instance rule that out up to rounding, which
    shows only at network penalties of about ``2**52`` and above, so the
    extras step almost never has a candidate.
    """
    n_txns = model.coloc_cost.shape[1]
    lam = float(cost_weight)
    rest = 1.0 - lam
    onehot = np.zeros((n_txns, site_count), np.float64)
    if n_txns:
        onehot[np.arange(n_txns), txn_site] = 1.0
    csum = model.coloc_cost @ onehot
    lsum = model.coloc_load @ onehot
    # read counts are small integers, which a float product sums exactly
    replicas = (model.txn_reads.astype(np.float64) @ onehot) > 0.0
    inc_all = lsum + model.replica_load[:, None]
    loads = np.where(replicas, inc_all, 0.0).sum(axis=0)
    m = float(loads.max())
    base_all = csum + model.replica_cost[:, None]

    # extras, in row-major candidate order: each round adds the first
    # candidate with the lowest marginal score while that is negative
    cand_a, cand_s = np.nonzero(~replicas & (lam * base_all < 0.0))
    if cand_a.size:
        cand_base = base_all[cand_a, cand_s]
        cand_inc = inc_all[cand_a, cand_s]
        taken = np.zeros(cand_a.size, bool)
        while not taken.all():
            delta = lam * cand_base + rest * np.maximum(loads[cand_s] + cand_inc - m, 0.0)
            delta[taken] = np.inf
            i = int(np.argmin(delta))
            if not delta[i] < 0.0:
                break
            s = cand_s[i]
            replicas[cand_a[i], s] = True
            loads[s] += cand_inc[i]
            m = max(m, float(loads[s]))
            taken[i] = True

    # coverage: every attribute needs at least one site
    uncovered = np.flatnonzero(~replicas.any(axis=1))
    loads = loads.tolist()
    for a, base, inc in zip(uncovered.tolist(), base_all[uncovered].tolist(),
                            inc_all[uncovered].tolist()):
        s, best = 0, lam * base[0] + rest * max(loads[0] + inc[0] - m, 0.0)
        for k in range(1, site_count):
            delta = lam * base[k] + rest * max(loads[k] + inc[k] - m, 0.0)
            if delta < best:
                s, best = k, delta
        replicas[a, s] = True
        loads[s] += inc[s]
        m = max(m, loads[s])
    return replicas


def solve_subproblem_fix_replicas(
    model: CostModel,
    replicas: np.ndarray,
    cost_weight: float,
    order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Best-effort transaction assignment for fixed replica sets.

    Transactions are placed one at a time in ``order`` (heaviest read
    weight first by default), each on the feasible site with the lowest
    weighted-score increase.  These greedy choices do not price the
    write-latency charge; the annealer's Metropolis score and the final
    :func:`evaluate` do.  Raises :class:`InfeasibleLayoutError` when some
    transaction cannot read all of its attributes on any single site,
    naming it and every transaction after it in ``order``.
    """
    if order is None:
        order = order_transactions_by_load(model)
    n_txns = model.coloc_cost.shape[1]
    sites = range(replicas.shape[1])
    lam = float(cost_weight)
    rest = 1.0 - lam
    rep_f = replicas.astype(np.float64)
    x = [-1] * n_txns
    loads = (rep_f.T @ model.replica_load).tolist()
    cval_all = (model.coloc_cost.T @ rep_f).tolist()  # (T, S)
    inc_all = (model.coloc_load.T @ rep_f).tolist()
    # missing reads per site: small integer counts, exact in a float product
    missing = (model.txn_reads.T.astype(np.float64) @ (1.0 - rep_f)).tolist()
    for t in np.asarray(order).tolist():
        miss, cval, inc = missing[t], cval_all[t], inc_all[t]
        m = max(loads)
        s, best = -1, 0.0
        for k in sites:
            if miss[k] == 0.0:
                delta = lam * cval[k] + rest * max(loads[k] + inc[k] - m, 0.0)
                if s < 0 or delta < best:
                    s, best = k, delta
        if s < 0:
            raise InfeasibleLayoutError([
                f"transaction {t} reads attributes that no single site holds together"
                for t, site in enumerate(x) if site < 0
            ])
        x[t] = s
        loads[s] += inc[s]
    return np.array(x, np.int64)


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
    deadline = started + config.time_limit

    n_txns = instance.transaction_count
    n_attrs = instance.attribute_count
    n_sites = instance.site_count
    order = np.array(order_transactions_by_load(model), np.int64)

    # Initial solution: random transaction sites, repaired replica sets.
    cur_x = rng.integers(0, n_sites, size=n_txns).astype(np.int64)
    cur_y = solve_subproblem_fix_transactions(model, cur_x, n_sites, instance.cost_weight)
    cur_score = _folded_score(instance, model, cur_x, cur_y)

    best_x, best_y, best_score = cur_x, cur_y, cur_score

    if best_score > 0.0:
        tau0 = initial_temperature(best_score)
    else:
        tau0 = 1.0
    tau = tau0
    freeze_at = _FREEZE_TEMPERATURE_RATIO * tau0

    fix_transactions = True
    stall = 0
    evaluations = 0
    temperatures: List[float] = []
    best_scores: List[float] = []
    current_scores: List[float] = []
    accepted_moves: List[int] = []

    while tau > freeze_at and stall < config.freeze_stall_loops and time.perf_counter() < deadline:
        accepted = 0
        best_before = best_score
        for _ in range(config.inner_loops):
            if time.perf_counter() >= deadline:
                break
            pert_x = perturb_transactions(cur_x, n_sites, _MOVE_FRACTION, rng)
            pert_y = perturb_replicas(cur_y, _MOVE_FRACTION, rng)
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
            cand_score = _folded_score(instance, model, cand_x, cand_y)
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
        tau *= _COOLING

    partitioning = Partitioning(txn_site=best_x, replica=best_y)
    report = SolveReport(
        partitioning=partitioning,
        breakdown=evaluate(instance, model, partitioning),
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
    the total number of evaluations.  The runs share one deadline,
    ``config.time_limit`` from the start: each run gets the time left,
    and the runs after the first are skipped once none is left, so
    fewer than ``runs`` traces may come back.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if config is None:
        config = SaConfig()
    model = derive(instance)
    started = time.perf_counter()
    results = []
    for i in range(runs):
        left = config.time_limit - (time.perf_counter() - started)
        if i > 0 and left <= 0.0:
            break
        run_config = replace(config, seed=config.seed + i, time_limit=max(left, 0.0))
        results.append(solve_sa(instance, run_config, model=model))
    best_index = min(range(len(results)), key=lambda i: (results[i][0].score, i))
    report = replace(
        results[best_index][0],
        wall_time=time.perf_counter() - started,
        node_count=sum(r.node_count for r, _ in results),
    )
    return report, tuple(trace for _, trace in results)
