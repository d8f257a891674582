"""Candidate layouts and their cost evaluation.

A :class:`Partitioning` assigns every transaction to exactly one site and
every attribute to a non-empty set of sites (attributes may be
replicated, transactions may not).  :func:`evaluate` prices a layout from
first principles — local read work, write upkeep on every replica, and
network transfer for remote replicas of written attributes —
while :func:`evaluate_folded` reproduces the objective through the folded
per-attribute coefficients.  Both must agree exactly on integral inputs;
the test suite holds them to that.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from . import kernels
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

    @classmethod
    def single_site(cls, instance: Instance) -> "Partitioning":
        """Everything on site 0 — always feasible, the trivial layout."""
        replica = np.zeros((instance.attribute_count, instance.site_count), dtype=bool)
        replica[:, 0] = True
        return cls(np.zeros(instance.transaction_count, dtype=np.int64), replica)

    @classmethod
    def from_maps(cls, instance: Instance, txn_map: Mapping[int, int],
                  attr_map: Mapping[int, Iterable[int]]) -> "Partitioning":
        """Build from ``{transaction_id: site}`` and ``{attribute_id: sites}``."""
        txn_site = np.zeros(instance.transaction_count, dtype=np.int64)
        for t in range(instance.transaction_count):
            if t not in txn_map:
                raise ValueError(f"transaction id {t} missing from assignment")
            txn_site[t] = txn_map[t]
        replica = np.zeros((instance.attribute_count, instance.site_count), dtype=bool)
        for a in range(instance.attribute_count):
            if a not in attr_map:
                raise ValueError(f"attribute id {a} missing from placement")
            for s in attr_map[a]:
                replica[a, int(s)] = True
        return cls(txn_site, replica)

    def sites_of(self, attribute_id: int) -> tuple[int, ...]:
        return tuple(int(s) for s in np.flatnonzero(self.replica[attribute_id]))

    def with_replica(self, attribute_id: int, site: int) -> "Partitioning":
        replica = self.replica.copy()
        replica[attribute_id, site] = True
        return Partitioning(self.txn_site, replica)

    def as_maps(self) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
        txn_map = {t: int(s) for t, s in enumerate(self.txn_site)}
        attr_map = {a: self.sites_of(a) for a in range(self.replica.shape[0])}
        return txn_map, attr_map

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
    writes = np.flatnonzero(model.is_write)
    home = txn_site[model.txn_of_query[writes]]  # (W,)
    off_home = replica.sum(axis=1)[:, None] - replica[:, home]  # (A, W)
    remote = (model.attr_access[:, writes] & (off_home > 0)).any(axis=0)
    return float(instance.latency_penalty) * float(model.frequencies[writes][remote].sum())


def _folded_score(instance: Instance, model: CostModel,
                  txn_site: np.ndarray, replica: np.ndarray) -> FoldedCost:
    """Objective and score of a layout through the folded coefficients,
    without feasibility checks."""
    objective, max_load = kernels.folded_cost(
        model.coloc_cost, model.replica_cost, model.coloc_load,
        model.replica_load, txn_site, replica)
    latency = _write_latency(instance, model, txn_site, replica)
    score = weighted_score(objective, max_load, latency, float(instance.cost_weight))
    return FoldedCost(objective=objective, score=score)


def evaluate(instance: Instance, model: CostModel,
             partitioning: Partitioning) -> CostBreakdown:
    """Price a layout from the definitional sums.

    * read access: for every read query, every attribute of a touched
      table that shares the transaction's site is read there;
    * write access: every replica of every attribute of a written table
      is maintained on its site;
    * transfer: every replica of a directly-written attribute off the
      transaction's site must be shipped the update.

    Raises :class:`InfeasibleLayoutError` when the layout breaks the
    placement rules.
    """
    violations = check_feasible(instance, model, partitioning)
    if violations:
        raise InfeasibleLayoutError(violations)

    x = partitioning.txn_site
    rep = partitioning.replica
    rep_f = rep.astype(np.float64)
    w = model.access_weight
    write_f = model.is_write.astype(np.float64)
    read_f = 1.0 - write_f
    q_txn = model.query_txn.astype(np.float64)
    table_f = model.table_access.astype(np.float64)
    attr_f = model.attr_access.astype(np.float64)

    on_site = rep[:, x]  # (A, T): attribute co-located with transaction

    # read access: weight * table-touched * read * gamma * x * y
    read_at = (w * table_f * read_f[None, :]) @ q_txn  # (A, T)
    read_access = float((read_at * on_site).sum())

    # write access: weight * table-touched * write, at every replica
    write_per_attr = (w * table_f * write_f[None, :]).sum(axis=1)  # (A,)
    write_access = float(write_per_attr @ rep_f.sum(axis=1))

    # transfer: weight * attr-written * write * gamma, at replicas off the site
    transfer_at = (w * attr_f * write_f[None, :]) @ q_txn  # (A, T)
    replica_counts = rep_f.sum(axis=1)
    transfer = float((transfer_at * (replica_counts[:, None] - on_site)).sum())

    objective = read_access + write_access + float(instance.network_penalty) * transfer

    loads = rep_f.T @ write_per_attr  # write upkeep per site
    per_txn_read = (read_at * on_site).sum(axis=0)  # (T,)
    np.add.at(loads, x, per_txn_read)
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
