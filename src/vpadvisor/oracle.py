"""Exhaustive-enumeration oracle: every layout of a small instance,
scored in vectorized chunks.  It needs numpy only, so ``solve --algo
brute`` loads no solver library.
"""
from __future__ import annotations

import math
import time
from itertools import product
from typing import Optional

import numpy as np

from .errors import BudgetExceededError
from .partitioning import Partitioning, evaluate, weighted_score
from .report import STATUS_OPTIMAL, SolveReport
from .workload import CostModel, Instance, derive

#: Nominal layout count enumerated by :func:`brute_force` at most.
DEFAULT_ENUMERATION_BUDGET = 10_000_000


def enumeration_size(instance: Instance, forbid_replication: bool = False) -> int:
    """Nominal layout count |S|^|T| * (2^|S|-1)^|A| (|S|^|A| if disjoint)."""
    s, t, a = instance.site_count, instance.transaction_count, instance.attribute_count
    per_attr = s if forbid_replication else (2**s - 1)
    return s**t * per_attr**a


# Layouts the enumerator scores per vectorized block.
_ENUMERATION_CHUNK = 1 << 13


def brute_force(
    instance: Instance,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    forbid_replication: bool = False,
    model: Optional[CostModel] = None,
) -> SolveReport:
    """Enumerate every layout and report the lexicographically first
    minimizer of the weighted score: status ``optimal``, a zero bound
    gap, and the nominal layout count as ``node_count``.

    Transaction assignments are walked in lexicographic order, the last
    transaction fastest.  For each, an attribute's candidate replica sets
    are the rows of one 0/1 site matrix (in ascending bitmask order, site
    0 the low bit) that hold every site its readers run on, and the
    choices of one set per attribute are scored in vectorized chunks, the
    last attribute fastest.  When the instance prices latency, a write
    query pays ``latency_penalty * frequency`` (weighted into the score
    like the rest of the objective) whenever any updated attribute keeps
    a replica off the transaction's site.

    Refuses instances whose nominal search space exceeds ``budget``.
    """
    started = time.perf_counter()
    size = enumeration_size(instance, forbid_replication)
    if size > budget:
        raise BudgetExceededError(
            f"enumeration would visit {size} layouts, over the budget of {budget}"
        )
    if model is None:
        model = derive(instance)
    n_sites = instance.site_count
    priced = slice(0) if instance.latency_penalty is None else slice(None)
    write_attr, write_txn = model.write_attr_access[:, priced], model.write_txn[priced]
    write_freq = model.write_frequencies[priced]
    latency_penalty = float(instance.latency_penalty or 0.0)
    lam = float(instance.cost_weight)
    reads_f = model.txn_reads.astype(np.float64)
    # Candidate site sets as 0/1 rows in ascending bitmask order, site 0 the low bit.
    site_sets = np.eye(n_sites) if forbid_replication else (
        np.array(list(product((0.0, 1.0), repeat=n_sites)))[1:, ::-1])
    set_sizes = site_sets.sum(axis=1)

    best_score = np.inf
    for homes in product(range(n_sites), repeat=instance.transaction_count):
        x = np.array(homes, dtype=np.int64)
        onehot = np.eye(n_sites)[x]
        csum = model.coloc_cost @ onehot
        lsum = model.coloc_load @ onehot
        forced = (reads_f @ onehot) > 0.0
        covers = (site_sets[None, :, :] >= forced[:, None, :]).all(axis=2)  # (A, sets)
        if not covers.any(axis=1).all():
            continue  # disjoint, and some attribute is read on two sites
        # Per attribute, one row per candidate set: its objective, its load
        # on each site and its replica count off each write query's site.
        choices = [np.flatnonzero(row) for row in covers]
        tables = [np.column_stack((
            site_sets[rows] @ csum[a] + set_sizes[rows] * model.replica_cost[a],
            site_sets[rows] * (lsum[a] + model.replica_load[a]),
            (set_sizes[rows][:, None] - site_sets[rows][:, x[write_txn]]) * write_attr[a],
        )) for a, rows in enumerate(choices)]
        counts = [rows.size for rows in choices]
        total = math.prod(counts)
        for start in range(0, total, _ENUMERATION_CHUNK):
            idx = np.arange(start, min(start + _ENUMERATION_CHUNK, total))
            digits = np.unravel_index(idx, (1, *counts))[1:]  # the 1 allows no attributes
            sums = np.zeros((idx.size, 1 + n_sites + write_txn.size))
            for table, d in zip(tables, digits):
                sums += table[d]
            latency = latency_penalty * ((sums[:, 1 + n_sites :] > 0) @ write_freq)
            score = weighted_score(sums[:, 0], sums[:, 1 : 1 + n_sites].max(axis=1), latency, lam)
            k = int(np.argmin(score))
            if score[k] < best_score:
                best_score = score[k]
                best_x = x
                best_replica = site_sets[[rows[d[k]] for rows, d in zip(choices, digits)]]

    part = Partitioning(txn_site=best_x, replica=best_replica)
    return SolveReport(
        partitioning=part,
        breakdown=evaluate(instance, model, part),
        bound_gap=0.0,
        wall_time=time.perf_counter() - started,
        node_count=size,
        status=STATUS_OPTIMAL,
    )
