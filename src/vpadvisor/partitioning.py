"""Candidate layouts and their cost evaluation.

A :class:`Partitioning` assigns every transaction to exactly one site and
every attribute to a non-empty set of sites (attributes may be
replicated, transactions may not).  :func:`evaluate` is the one public
price: it prices a layout from first principles — local read work, write
upkeep on every replica, and network transfer for remote replicas of
written attributes.  ``_folded_score`` is the annealer's private price:
it reaches the same score through the folded per-attribute coefficients
and skips the feasibility checks and the breakdown.  It stays because
the annealer prices every move: on the benchmark's generated instances
(2-core host) a call takes about 160 µs read-heavy and 210 µs
write-heavy, against 196-255 µs and 250-313 µs for the definitional
sums alone.  Both read the blocks :func:`derive` built once, share the
site-load step, and must agree exactly on integral inputs; the test
suite holds them to that.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleLayoutError
from .workload import CostModel, Instance


@dataclass(frozen=True, eq=False)
class Partitioning:
    """Immutable placement decision: ``txn_site[t]`` and ``replica[a, s]``."""

    txn_site: np.ndarray
    replica: np.ndarray

    def __post_init__(self):
        # Copies, so that freezing them leaves the caller's arrays writable.
        txn_site = np.array(self.txn_site, dtype=np.int64, order="C")
        replica = np.array(self.replica, dtype=bool, order="C")
        if replica.ndim != 2:
            raise ValueError("replica matrix must be 2-dimensional")
        if txn_site.ndim != 1:
            raise ValueError("transaction site vector must be 1-dimensional")
        txn_site.flags.writeable = False
        replica.flags.writeable = False
        object.__setattr__(self, "txn_site", txn_site)
        object.__setattr__(self, "replica", replica)

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


def weighted_score(objective: float, max_load: float, latency: Optional[float],
                   cost_weight: float) -> float:
    """Mix objective (plus any latency charge) against the peak site load.

    Single source of truth for the score formula so that full and folded
    evaluation, and the exhaustive enumerator, agree bitwise.
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

    txn_site = partitioning.txn_site
    replica = partitioning.replica
    in_range = (txn_site >= 0) & (txn_site < n_s)
    for t in np.flatnonzero(~in_range).tolist():
        out.append(
            f"transaction '{instance.transactions[t].name}' assigned to "
            f"site {int(txn_site[t])}, outside 0..{n_s - 1}")
    for a in np.flatnonzero(~replica.any(axis=1)).tolist():
        out.append(f"attribute '{_attr_ref(instance, a)}' is placed on no site")
    # Reads without a replica on the reader's site, ordered by transaction.
    home = np.flatnonzero(in_range)
    missing = model.txn_reads[:, home] & ~replica[:, txn_site[home]]
    for k, a in zip(*(ids.tolist() for ids in np.nonzero(missing.T))):
        t = int(home[k])
        out.append(
            f"attribute '{_attr_ref(instance, a)}' is read by transaction "
            f"'{instance.transactions[t].name}' but has no replica on its "
            f"site {int(txn_site[t])}")
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
                  txn_site: np.ndarray, replica: np.ndarray) -> float:
    """Score of a layout through the folded coefficients, without
    feasibility checks."""
    rep_f = replica.astype(np.float64)
    on_site = replica[:, txn_site]  # (A, T): attribute co-located with transaction
    objective = (float((model.coloc_cost * on_site).sum())
                 + float(model.replica_cost @ rep_f.sum(axis=1)))
    max_load = float(_site_loads(model, txn_site, rep_f, on_site).max())
    latency = _write_latency(instance, model, txn_site, replica)
    return weighted_score(objective, max_load, latency, float(instance.cost_weight))


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
