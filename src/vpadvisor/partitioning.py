"""Candidate layouts and their cost evaluation.

A :class:`Partitioning` assigns every transaction to exactly one site and
every attribute to a non-empty set of sites (attributes may be
replicated, transactions may not).  :func:`evaluate` prices a layout from
first principles — local read work, write upkeep on every replica, and
network transfer for remote replicas of written attributes —
while :func:`evaluate_folded` reproduces the objective through the folded
per-attribute coefficients.  Both read the blocks :func:`derive` built
once, share the site-load step, and must agree exactly on integral
inputs; the test suite holds them to that.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InfeasibleLayoutError
from .workload import CostModel, Instance


@dataclass(frozen=True, eq=False)
class Partitioning:
    """Immutable placement decision: ``txn_site[t]`` and ``replica[a, s]``."""

    txn_site: np.ndarray
    replica: np.ndarray

    def __post_init__(self):
        txn_site = np.ascontiguousarray(np.asarray(self.txn_site, dtype=np.int64))
        replica = np.ascontiguousarray(np.asarray(self.replica, dtype=bool))
        if replica.ndim != 2:
            raise ValueError("replica matrix must be 2-dimensional")
        if txn_site.ndim != 1:
            raise ValueError("transaction site vector must be 1-dimensional")
        txn_site.flags.writeable = False
        replica.flags.writeable = False
        object.__setattr__(self, "txn_site", txn_site)
        object.__setattr__(self, "replica", replica)

    @property
    def site_count(self) -> int:
        return self.replica.shape[1]

    def with_replica(self, attribute_id: int, site: int) -> "Partitioning":
        replica = self.replica.copy()
        replica[attribute_id, site] = True
        return Partitioning(self.txn_site, replica)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partitioning):
            return NotImplemented
        return (np.array_equal(self.txn_site, other.txn_site)
                and np.array_equal(self.replica, other.replica))

    def __hash__(self) -> int:
        return hash((self.txn_site.tobytes(), self.replica.tobytes(),
                     self.replica.shape))


@dataclass(frozen=True)
class CostBreakdown:
    """Priced layout: byte costs, per-site loads, and the mixed score.

    ``objective = read_access + write_access + network_penalty * transfer``
    always; ``latency`` is populated only when the instance prices write
    latency, and then participates in ``score`` alongside the objective.
    """

    read_access: float
    write_access: float
    transfer: float
    objective: float
    site_loads: tuple[float, ...]
    max_load: float
    score: float
    latency: Optional[float] = None


class FoldedCost(NamedTuple):
    objective: float
    score: float


def weighted_score(objective: float, max_load: float, latency: Optional[float],
                   cost_weight: float) -> float:
    """Mix objective (plus any latency charge) against the peak site load.

    Single source of truth for the score formula so that full evaluation,
    folded evaluation, and incremental deltas agree bitwise.
    """
    extra = 0.0 if latency is None else latency
    return cost_weight * (objective + extra) + (1.0 - cost_weight) * max_load


def check_feasible(instance: Instance, model: CostModel,
                   partitioning: Partitioning) -> list[str]:
    """Return violation messages; empty list means the layout is usable.

    Checks shape agreement, site ranges, the one-site-per-transaction
    rule, non-empty placement for every attribute, and co-location of
    every attribute read by a transaction with that transaction's site.
    """
    out: list[str] = []
    n_t = instance.transaction_count
    n_a = instance.attribute_count
    n_s = instance.site_count

    if partitioning.txn_site.shape != (n_t,):
        out.append(
            f"transaction assignment covers {partitioning.txn_site.shape[0]} "
            f"transactions, instance has {n_t}")
        return out
    if partitioning.replica.shape != (n_a, n_s):
        out.append(
            f"replica matrix has shape {partitioning.replica.shape}, "
            f"expected ({n_a}, {n_s})")
        return out

    for t in range(n_t):
        s = int(partitioning.txn_site[t])
        if not (0 <= s < n_s):
            out.append(
                f"transaction '{instance.transactions[t].name}' assigned to "
                f"site {s}, outside 0..{n_s - 1}")

    empty = np.flatnonzero(~partitioning.replica.any(axis=1))
    for a in empty:
        out.append(f"attribute '{_attr_ref(instance, int(a))}' is placed on no site")

    for t in range(n_t):
        s = int(partitioning.txn_site[t])
        if not (0 <= s < n_s):
            continue
        needed = np.flatnonzero(model.txn_reads[:, t] & ~partitioning.replica[:, s])
        for a in needed:
            out.append(
                f"attribute '{_attr_ref(instance, int(a))}' is read by transaction "
                f"'{instance.transactions[t].name}' but has no replica on its site {s}")
    return out


def _attr_ref(instance: Instance, attribute_id: int) -> str:
    attr = instance.attributes[attribute_id]
    return f"{instance.tables[attr.table_id].name}.{attr.name}"


def _write_latency(instance: Instance, model: CostModel,
                   txn_site: np.ndarray, replica: np.ndarray) -> Optional[float]:
    """Latency charge: penalty * frequency for each write query that must
    reach a replica of an updated attribute off its transaction's site."""
    if instance.latency_penalty is None:
        return None
    home = txn_site[model.write_txn]  # (W,)
    off_home = replica.sum(axis=1)[:, None] - replica[:, home]  # (A, W)
    remote = (model.write_attr_access & (off_home > 0)).any(axis=0)
    return float(instance.latency_penalty) * float(model.write_frequencies[remote].sum())


def _site_loads(model: CostModel, txn_site: np.ndarray, rep_f: np.ndarray,
                on_site: np.ndarray) -> np.ndarray:
    """Work per site: write upkeep at every replica plus each
    transaction's reads at its own site."""
    loads = rep_f.T @ model.replica_load
    np.add.at(loads, txn_site, (model.coloc_load * on_site).sum(axis=0))
    return loads


def _folded_score(instance: Instance, model: CostModel,
                  txn_site: np.ndarray, replica: np.ndarray) -> FoldedCost:
    """Objective and score of a layout through the folded coefficients,
    without feasibility checks."""
    rep_f = replica.astype(np.float64)
    on_site = replica[:, txn_site]  # (A, T): attribute co-located with transaction
    objective = (float((model.coloc_cost * on_site).sum())
                 + float(model.replica_cost @ rep_f.sum(axis=1)))
    max_load = float(_site_loads(model, txn_site, rep_f, on_site).max())
    latency = _write_latency(instance, model, txn_site, replica)
    score = weighted_score(objective, max_load, latency, float(instance.cost_weight))
    return FoldedCost(objective=objective, score=score)


def evaluate(instance: Instance, model: CostModel,
             partitioning: Partitioning) -> CostBreakdown:
    """Price a layout from the definitional sums.

    * read access: for every read query, every attribute of a touched
      table that shares the transaction's site is read there
      (``coloc_load``);
    * write access: every replica of every attribute of a written table
      is maintained on its site (``replica_load``);
    * transfer: every replica of a directly-written attribute off the
      transaction's site must be shipped the update (``coloc_transfer``).

    Raises :class:`InfeasibleLayoutError` when the layout breaks the
    placement rules.
    """
    violations = check_feasible(instance, model, partitioning)
    if violations:
        raise InfeasibleLayoutError(violations)

    x = partitioning.txn_site
    rep = partitioning.replica
    rep_f = rep.astype(np.float64)
    on_site = rep[:, x]  # (A, T): attribute co-located with transaction
    replica_counts = rep_f.sum(axis=1)

    read_access = float((model.coloc_load * on_site).sum())
    write_access = float(model.replica_load @ replica_counts)
    transfer = float((model.coloc_transfer * (replica_counts[:, None] - on_site)).sum())
    objective = read_access + write_access + float(instance.network_penalty) * transfer

    loads = _site_loads(model, x, rep_f, on_site)
    max_load = float(loads.max())
    latency = _write_latency(instance, model, x, rep)
    score = weighted_score(objective, max_load, latency, float(instance.cost_weight))

    return CostBreakdown(
        read_access=read_access,
        write_access=write_access,
        transfer=transfer,
        objective=objective,
        site_loads=tuple(float(v) for v in loads),
        max_load=max_load,
        score=score,
        latency=latency,
    )


def evaluate_folded(instance: Instance, model: CostModel,
                    partitioning: Partitioning) -> FoldedCost:
    """Price a layout through the folded per-attribute coefficients.

    Must agree with :func:`evaluate` — the folded coefficients collapse
    the per-query sums into per-(attribute, transaction) and per-attribute
    weights, exploiting that each query belongs to exactly one transaction.
    """
    violations = check_feasible(instance, model, partitioning)
    if violations:
        raise InfeasibleLayoutError(violations)
    return _folded_score(instance, model, partitioning.txn_site, partitioning.replica)


def delta_add_replica(instance: Instance, model: CostModel,
                      partitioning: Partitioning, attribute_id: int,
                      site: int) -> float:
    """Score change from adding one replica, priced through the folded
    coefficients.  Equals ``evaluate(after).score - evaluate(before).score``.

    Raises ``ValueError`` if the replica already exists.
    """
    a = int(attribute_id)
    s = int(site)
    if not (0 <= a < instance.attribute_count):
        raise ValueError(f"unknown attribute id {a}")
    if not (0 <= s < instance.site_count):
        raise ValueError(f"site {s} outside 0..{instance.site_count - 1}")
    if partitioning.replica[a, s]:
        raise ValueError(
            f"attribute '{_attr_ref(instance, a)}' already has a replica on site {s}")

    x = partitioning.txn_site
    grown = partitioning.with_replica(a, s).replica
    before = _folded_score(instance, model, x, partitioning.replica).score
    return _folded_score(instance, model, x, grown).score - before
