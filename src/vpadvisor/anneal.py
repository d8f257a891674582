"""Simulated-annealing heuristic for the partitioning problem.

The annealer's state is the transaction assignment alone.  A move
re-homes a few transactions, and the replica sets are then rebuilt
greedily for the new assignment, so every layout the search visits
holds the replica sets that its assignment forces plus one site for
each attribute that no transaction reads.  Moves are accepted with the
Metropolis rule on the weighted score, the temperature follows a
geometric schedule, and the search freezes when the temperature
collapses or the best score stalls.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

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
    re-homes ``_MOVE_FRACTION`` of the transactions (rounded up).  The
    search stops when the temperature drops below
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


@dataclass(frozen=True)
class _RepairTables:
    """Per-run constants of the replica repair and the latency charge,
    built once per :func:`solve_sa` run and passed to every call.

    ``site_count`` and ``lam`` (the cost weight) are the instance's;
    ``rows[t]`` holds transaction ``t``'s columns of ``coloc_cost``,
    ``coloc_load`` and ``txn_reads`` (as 0/1) end to end, and
    ``offsets`` the ``replica_cost``, ``replica_load`` and zeros they
    line up with: a layout's column sums (see :func:`_column_sums`) are
    the offsets plus the rows of the transactions on each site.
    ``steps[new, old]`` is the unit row of site ``new`` minus that of
    site ``old``, which moves a row between the two.  ``unread`` are the
    attributes that no transaction reads; ``write_pairs`` the (write
    query, attribute) pairs of the latency charge (see
    :func:`_write_pairs`).
    """

    site_count: int
    lam: float
    txn_ids: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray
    steps: np.ndarray
    unread: np.ndarray
    write_pairs: Tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def build(cls, model: CostModel, site_count: int, cost_weight: float) -> "_RepairTables":
        """``model``'s tables; ``cost_weight`` must lie in [0, 1], as an
        instance's must: only there is the repair's fast path exact."""
        lam = float(cost_weight)
        if not 0.0 <= lam <= 1.0:
            raise ValueError("cost_weight must lie in [0, 1]")
        columns = np.concatenate([model.coloc_cost, model.coloc_load, model.txn_reads])
        sites = np.eye(site_count)
        return cls(
            site_count=site_count,
            lam=lam,
            txn_ids=np.arange(model.txn_reads.shape[1]),
            rows=np.ascontiguousarray(columns.T),
            offsets=np.concatenate([
                model.replica_cost, model.replica_load, np.zeros(model.replica_cost.size)]),
            steps=sites[:, None, :] - sites[None, :, :],
            unread=np.flatnonzero(~model.txn_reads.any(axis=1)),
            write_pairs=_write_pairs(model),
        )


def _column_sums(txn_site: np.ndarray, tables: _RepairTables) -> np.ndarray:
    """The column sums of the layout that puts transaction ``t`` on
    ``txn_site[t]``, built from scratch.

    They are one ``(3A, S)`` array: ``coloc_cost @ onehot +
    replica_cost``, ``coloc_load @ onehot + replica_load`` and the read
    counts ``txn_reads @ onehot``, stacked.  For each attribute and site
    they hold what a replica there costs, the work it adds to the site,
    and how many of the site's transactions read the attribute.
    """
    onehot = np.zeros((tables.txn_ids.size, tables.site_count), np.float64)
    onehot[tables.txn_ids, txn_site] = 1.0
    return tables.rows.T @ onehot + tables.offsets[:, None]


def _shifted_sums(
    sums: np.ndarray, txn_site: np.ndarray, moved_site: np.ndarray, tables: _RepairTables,
) -> np.ndarray:
    """The column sums of ``moved_site``, from ``sums``, those of
    ``txn_site``: the row of each re-homed transaction leaves its old
    site's column and joins its new one, in one ``(3A, k) @ (k, S)``
    product over the ``k`` re-homed transactions.

    On integral coefficients every sum is an exact integer in any order,
    so the result equals :func:`_column_sums` of ``moved_site`` bit for
    bit.  On other coefficients it may differ from it by rounding; the
    read counts stay exact either way.
    """
    moved = np.flatnonzero(moved_site != txn_site)
    shifted = tables.rows[moved].T @ tables.steps[moved_site[moved], txn_site[moved]]
    shifted += sums
    return shifted


def _place(
    first: List[int],
    cost: List[float],
    inc: List[float],
    loads: List[float],
    lam: float,
) -> None:
    """The greedy rule of the replica repair: put each item, in index
    order, on the site with the lowest rise in the weighted score,
    ``lam * cost + (1 - lam) * max(loads[s] + inc - m, 0)`` with ``m``
    the peak load, the lowest site winning ties.

    Item ``i``'s cost and load at site ``k`` sit at ``i * S + k`` of the
    flat lists ``cost`` and ``inc``.  ``first`` holds each item's first
    cheapest site by ``lam * cost``; it ends as the chosen sites, and
    ``loads`` as the site loads.

    An item whose first cheapest site stays at or below ``m`` goes there
    without a scan, and that is exact: its rise is its weighted cost, and
    every other site's rise is at least that site's weighted cost, as
    ``1 - lam >= 0`` for ``lam`` in [0, 1] and rounding a sum with a
    nonnegative term never lowers it; loads only grow (every increment is
    work), so ``m`` is a running maximum; and the first minimum wins ties.
    By the same bound the scan skips each site whose weighted cost alone
    is no lower than the best rise so far.  The scan loops over the
    handful of sites in plain Python on lists, as numpy's per-call
    overhead on 4-element arrays costs far more than the arithmetic.
    """
    rest = 1.0 - lam
    n_sites = len(loads)
    m = max(loads)
    for i, s in enumerate(first):
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


def solve_subproblem_fix_transactions(
    model: CostModel, txn_site: np.ndarray, tables: _RepairTables,
    sums: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float, float]:
    """Best-effort replica sets for a fixed transaction assignment,
    with their objective and peak site load.

    Every attribute read by a transaction is forced onto that
    transaction's site, and each attribute that no transaction reads
    lands on the site where it raises the weighted score least.  No other
    replica is added, as an unforced one never lowers the score (see
    :class:`CostModel`).  These greedy choices do not price the
    write-latency charge; the annealer's Metropolis score and the final
    :func:`evaluate` do.  ``tables`` are ``model``'s, and ``sums`` the
    assignment's column sums: the annealer shifts them from move to move
    (:func:`_shifted_sums`), and by default they are built afresh
    (:func:`_column_sums`).
    """
    if sums is None:
        sums = _column_sums(txn_site, tables)
    lam, n_attrs = tables.lam, model.replica_cost.size
    base_all = sums[:n_attrs]
    inc_all = sums[n_attrs:2 * n_attrs]
    replicas = sums[2 * n_attrs:] > 0.0
    loads = np.where(replicas, inc_all, 0.0).sum(axis=0)

    # every attribute that no transaction reads still needs one site
    unread = tables.unread
    cost = base_all[unread]
    first = (lam * cost).argmin(axis=1).tolist()
    loads = loads.tolist()
    _place(first, cost.ravel().tolist(), inc_all[unread].ravel().tolist(), loads, lam)
    replicas[unread, first] = True
    return replicas, float(base_all[replicas].sum()), max(loads)


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
    n_sites = instance.site_count
    tables = _RepairTables.build(model, n_sites, instance.cost_weight)

    def score(x, y, objective, max_load):
        latency = _write_latency(instance, model, x, y, tables.write_pairs)
        return weighted_score(objective, max_load, latency, tables.lam)

    # Initial solution: random transaction sites, repaired replica sets.
    # The state is ``cur_x`` alone: every layout's replica sets are the
    # repair of its assignment, so the returned layout's are built at the
    # end.
    cur_x = rng.integers(0, n_sites, size=n_txns).astype(np.int64)
    cur_y, objective, max_load = solve_subproblem_fix_transactions(model, cur_x, tables)
    cur_score = score(cur_x, cur_y, objective, max_load)

    best_x, best_score = cur_x, cur_score

    if best_score > 0.0:
        tau0 = initial_temperature(best_score)
    else:
        tau0 = 1.0
    tau = tau0
    freeze_at = _FREEZE_TEMPERATURE_RATIO * tau0

    stall = 0
    evaluations = 0
    temperatures: List[float] = []
    best_scores: List[float] = []
    current_scores: List[float] = []
    accepted_moves: List[int] = []

    while tau > freeze_at and stall < config.freeze_stall_loops and time.perf_counter() < deadline:
        accepted = 0
        best_before = best_score
        # each move shifts the current sums; fresh ones every step keep
        # rounding on non-integral coefficients from piling up
        cur_sums = _column_sums(cur_x, tables)
        for _ in range(config.inner_loops):
            if time.perf_counter() >= deadline:
                break
            cand_x = perturb_transactions(cur_x, n_sites, _MOVE_FRACTION, rng)
            cand_sums = _shifted_sums(cur_sums, cur_x, cand_x, tables)
            cand_y, objective, max_load = solve_subproblem_fix_transactions(
                model, cand_x, tables, cand_sums)
            evaluations += 1
            cand_score = score(cand_x, cand_y, objective, max_load)
            delta = cand_score - cur_score
            if accept_move(delta, tau, rng):
                cur_x, cur_sums, cur_score = cand_x, cand_sums, cand_score
                accepted += 1
                if cur_score < best_score:
                    best_x, best_score = cand_x, cand_score
        temperatures.append(tau)
        best_scores.append(best_score)
        current_scores.append(cur_score)
        accepted_moves.append(accepted)
        stall = stall + 1 if best_score >= best_before else 0
        tau *= _COOLING

    # a fresh repair, so the replica sets returned are the repair of
    # best_x even where the shifted sums rounded otherwise
    best_y, _, _ = solve_subproblem_fix_transactions(model, best_x, tables)
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
