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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InfeasibleLayoutError
from .partitioning import (
    Partitioning, _write_latency, _write_pairs, evaluate, weighted_score,
)
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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


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


@dataclass(frozen=True)
class _RepairTables:
    """Per-run constants of the repairs and the latency charge, built
    once per :func:`solve_sa` run and passed to every call.

    ``site_count`` and ``lam`` (the cost weight) are the instance's;
    ``read_attr``/``read_txn`` are the (attribute, transaction) pairs of
    ``txn_reads``, whose replicas every layout must hold; ``unread`` the
    attributes that no transaction reads; ``reads_f`` the float (T, A)
    read counts; ``write_pairs`` the (write query, attribute) pairs of the
    latency charge (see :func:`_write_pairs`); ``order`` the transaction
    ids by total read weight, heaviest first and ties toward the lower
    id, the order in which the assignment repair places them.
    """

    site_count: int
    lam: float
    txn_ids: np.ndarray
    read_attr: np.ndarray
    read_txn: np.ndarray
    unread: np.ndarray
    reads_f: np.ndarray
    write_pairs: Tuple[np.ndarray, np.ndarray, np.ndarray]
    order: List[int]

    @classmethod
    def build(cls, model: CostModel, site_count: int, cost_weight: float) -> "_RepairTables":
        """``model``'s tables; ``cost_weight`` must lie in [0, 1], as an
        instance's must: only there are the repairs' fast paths exact."""
        lam = float(cost_weight)
        if not 0.0 <= lam <= 1.0:
            raise ValueError("cost_weight must lie in [0, 1]")
        read_attr, read_txn = np.nonzero(model.txn_reads)
        txn_ids = np.arange(model.txn_reads.shape[1])
        return cls(
            site_count=site_count,
            lam=lam,
            txn_ids=txn_ids,
            read_attr=read_attr,
            read_txn=read_txn,
            unread=np.flatnonzero(~model.txn_reads.any(axis=1)),
            reads_f=model.txn_reads.T.astype(np.float64),
            write_pairs=_write_pairs(model),
            order=np.lexsort((txn_ids, -model.coloc_load.sum(axis=0))).tolist(),
        )


def _place(
    order: Sequence[int],
    first: List[int],
    cost: List[float],
    inc: List[float],
    loads: List[float],
    lam: float,
    objective: float,
) -> float:
    """The greedy rule of both repairs: put each item, in ``order``, on
    the site with the lowest rise in the weighted score,
    ``lam * cost + (1 - lam) * max(loads[s] + inc - m, 0)`` with ``m``
    the peak load, the lowest site winning ties.

    Item ``i``'s cost and load at site ``k`` sit at ``i * S + k`` of the
    flat lists ``cost`` and ``inc``; an ``inf`` cost marks a site the item
    cannot use.  ``first`` holds each item's first cheapest usable site by
    ``lam * cost``, or any site when it has none; it ends as the chosen
    sites, and ``loads`` as the site loads.  Returns ``objective`` plus
    the chosen costs, added one item at a time in ``order``: ``inf`` when
    some item can use no site.

    An item whose first cheapest site stays at or below ``m`` goes there
    without a scan, and that is exact: its rise is its weighted cost, and
    every other site's rise is at least that site's weighted cost, as
    ``1 - lam >= 0`` for ``lam`` in [0, 1] and rounding a sum with a
    nonnegative term never lowers it; loads only grow (every increment is
    work), so ``m`` is a running maximum; and the first minimum wins ties.
    By the same bound the scan skips each site whose weighted cost alone
    is no lower than the best rise so far, so it never chooses a site
    priced ``inf`` (NaN at ``lam = 0``).  The scan loops over the handful
    of sites in plain Python on lists, as numpy's per-call overhead on
    4-element arrays costs far more than the arithmetic.
    """
    rest = 1.0 - lam
    n_sites = len(loads)
    m = max(loads)
    for i in order:
        s = first[i]
        j = i * n_sites + s
        grown = loads[s] + inc[j]
        if grown > m:
            row = j - s
            best = math.inf
            for k in range(n_sites):
                w = lam * cost[row + k]
                if w < best:
                    over = loads[k] + inc[row + k] - m
                    if over > 0.0:
                        w += rest * over
                    if w < best:
                        s, best = k, w
            first[i] = s
            j = row + s
            grown = loads[s] + inc[j]
            if grown > m:
                m = grown
        loads[s] = grown
        objective += cost[j]
    return objective


def solve_subproblem_fix_transactions(
    model: CostModel, txn_site: np.ndarray, tables: _RepairTables,
) -> Tuple[np.ndarray, float, float]:
    """Best-effort replica sets for a fixed transaction assignment,
    with their objective and peak site load.

    Every attribute read by a transaction is forced onto that
    transaction's site, and each attribute that no transaction reads
    lands on the site where it raises the weighted score least.  No other
    replica is added, as an unforced one never lowers the score (see
    :class:`CostModel`).  These greedy choices do not price the
    write-latency charge; the annealer's Metropolis score and the final
    :func:`evaluate` do.  ``tables`` are ``model``'s.
    """
    lam, site_count = tables.lam, tables.site_count
    onehot = np.zeros((tables.txn_ids.size, site_count), np.float64)
    onehot[tables.txn_ids, txn_site] = 1.0
    csum = model.coloc_cost @ onehot
    lsum = model.coloc_load @ onehot
    replicas = np.zeros((model.coloc_cost.shape[0], site_count), bool)
    replicas[tables.read_attr, txn_site[tables.read_txn]] = True
    inc_all = lsum + model.replica_load[:, None]
    loads = np.where(replicas, inc_all, 0.0).sum(axis=0)
    base_all = csum + model.replica_cost[:, None]

    # every attribute that no transaction reads still needs one site
    unread = tables.unread
    cost = base_all[unread]
    first = (lam * cost).argmin(axis=1).tolist()
    loads = loads.tolist()
    _place(range(unread.size), first, cost.ravel().tolist(),
           inc_all[unread].ravel().tolist(), loads, lam, 0.0)
    replicas[unread, first] = True
    return replicas, float(base_all[replicas].sum()), max(loads)


def solve_subproblem_fix_replicas(
    model: CostModel, replicas: np.ndarray, tables: _RepairTables,
) -> Tuple[np.ndarray, float, float]:
    """Best-effort transaction assignment for fixed replica sets, with
    its objective and peak site load.

    Transactions are placed one at a time in ``tables.order`` (heaviest
    read weight first), each on the feasible site with the lowest
    weighted-score increase.  These greedy choices do not price the
    write-latency charge; the annealer's Metropolis score and the final
    :func:`evaluate` do.  Raises :class:`InfeasibleLayoutError` when some
    transaction cannot read all of its attributes on any single site,
    naming each such transaction.  ``tables`` are ``model``'s.
    """
    lam, n_sites, order = tables.lam, tables.site_count, tables.order
    rep_f = replicas.astype(np.float64)
    # replica counts per attribute: 0/1 sums, exact in a float product
    objective = float(model.replica_cost @ (rep_f @ np.ones(n_sites)))
    loads = (rep_f.T @ model.replica_load).tolist()
    cval = model.coloc_cost.T @ rep_f  # (T, S)
    # missing reads per site: small integer counts, exact in a float
    # product; a site that lacks one costs ``inf``
    feasible = (tables.reads_f @ (1.0 - rep_f)) == 0.0
    # masked after the product: ``lam * inf`` is NaN at lam = 0, and
    # ``argmin`` takes the first NaN
    x = np.where(feasible, lam * cval, np.inf).argmin(axis=1).tolist()
    objective = _place(order, x, np.where(feasible, cval, np.inf).ravel().tolist(),
                       (model.coloc_load.T @ rep_f).ravel().tolist(), loads, lam, objective)
    if objective == math.inf:  # ``derive`` keeps every real cost finite
        raise InfeasibleLayoutError([
            f"transaction {t} reads attributes that no single site holds together"
            for t in np.flatnonzero(~feasible.any(axis=1)).tolist()
        ])
    return np.array(x, np.int64), objective, max(loads)


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
    tables = _RepairTables.build(model, n_sites, instance.cost_weight)

    def score(x, y, objective, max_load):
        latency = _write_latency(instance, model, x, y, tables.write_pairs)
        return weighted_score(objective, max_load, latency, tables.lam)

    # Initial solution: random transaction sites, repaired replica sets.
    cur_x = rng.integers(0, n_sites, size=n_txns).astype(np.int64)
    cur_y, objective, max_load = solve_subproblem_fix_transactions(
        model, cur_x, tables)
    cur_score = score(cur_x, cur_y, objective, max_load)

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
                cand_y, objective, max_load = solve_subproblem_fix_transactions(
                    model, cand_x, tables)
            else:
                cand_y = pert_y
                cand_x, objective, max_load = solve_subproblem_fix_replicas(
                    model, cand_y, tables)
            fix_transactions = not fix_transactions
            evaluations += 1
            cand_score = score(cand_x, cand_y, objective, max_load)
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
