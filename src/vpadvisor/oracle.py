"""Exhaustive-enumeration oracle: every layout of a small instance that
can be optimal, scored in vectorized chunks.  It needs numpy only, so
``solve --algo brute`` loads no solver library.
"""
from __future__ import annotations

import math
import time
from itertools import product

import numpy as np

from .errors import BudgetExceededError
from .partitioning import Partitioning, evaluate, weighted_score
from .report import STATUS_OPTIMAL, SolveReport
from .workload import Instance, derive

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
) -> SolveReport:
    """Enumerate every layout that can be optimal and report the
    lexicographically first minimizer of the weighted score: status
    ``optimal``, a zero bound gap, and the nominal layout count of
    :func:`enumeration_size` as ``node_count``.

    Transaction assignments are walked in lexicographic order, the last
    transaction fastest.  For each, an attribute's only candidate replica
    set is the set of sites its readers run on; an attribute nobody
    reads has each single site as a candidate, in site order.  A replica
    beyond those never lowers the score but for rounding (the bound
    stated on :class:`CostModel`), so larger sets are not priced.  When
    replication is forbidden, an assignment that reads some attribute on
    two sites is skipped.  The choices of one set per attribute are
    scored in vectorized chunks, the last attribute fastest.  When the
    instance prices latency, a write query pays ``latency_penalty *
    frequency`` (weighted into the score like the rest of the objective)
    whenever any updated attribute keeps a replica off the transaction's
    site.

    Refuses instances whose nominal search space exceeds ``budget``.
    """
    started = time.perf_counter()
    size = enumeration_size(instance, forbid_replication)
    if size > budget:
        raise BudgetExceededError(
            f"enumeration would visit {size} layouts, over the budget of {budget}"
        )
    model = derive(instance)
    n_sites = instance.site_count
    priced = slice(0) if instance.latency_penalty is None else slice(None)
    write_attr, write_txn = model.write_attr_access[:, priced], model.write_txn[priced]
    write_freq = model.write_frequencies[priced]
    latency_penalty = float(instance.latency_penalty or 0.0)
    lam = float(instance.cost_weight)
    reads_f = model.txn_reads.astype(np.float64)
    eye = np.eye(n_sites)
    single = np.arange(n_sites)

    best_score = np.inf
    for homes in product(range(n_sites), repeat=instance.transaction_count):
        x = np.array(homes, dtype=np.int64)
        onehot = eye[x]
        csum = model.coloc_cost @ onehot
        lsum = model.coloc_load @ onehot
        forced = (reads_f @ onehot) > 0.0
        if forbid_replication and (forced.sum(axis=1) > 1).any():
            continue  # some attribute is read on two sites
        # Candidate sets as 0/1 rows of ``site_sets``: each single site,
        # then each attribute's forced sites.  Per attribute, one row per
        # candidate: its objective, its load on each site and its replica
        # count off each write query's site.
        site_sets = np.vstack((eye, forced))
        choices = [np.array([n_sites + a]) if row.any() else single
                   for a, row in enumerate(forced)]
        set_sizes = site_sets.sum(axis=1)
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
