"""Shared fixtures and a definitional cost oracle.

The oracle prices a layout with plain quadruple loops over
(attribute, transaction, site, query), written straight from the cost
definitions and sharing no code with the package's vectorized
evaluator.  Tests compare the two routes; agreement is the evidence.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from vpadvisor import (
    Attribute,
    GenParams,
    Instance,
    Partitioning,
    Query,
    Table,
    Transaction,
    generate,
)


# ---------------------------------------------------------------------------
# tiny hand-checkable instances


def t1_instance(site_count: int = 2) -> Instance:
    """Two-attribute table, one read transaction."""
    return Instance(
        tables=(Table(0, "R", (0, 1)),),
        attributes=(Attribute(0, 0, "a1", 4), Attribute(1, 0, "a2", 8)),
        queries=(Query(0, "q1", "read", 10.0, (0,), {0: 2}),),
        transactions=(Transaction(0, "t1", (0,)),),
        site_count=site_count,
    )


def t2_instance(site_count: int = 2) -> Instance:
    """One-attribute table, one write transaction, p=8."""
    return Instance(
        tables=(Table(0, "S", (0,)),),
        attributes=(Attribute(0, 0, "b", 4),),
        queries=(Query(0, "q2", "write", 1.0, (0,), {0: 1}),),
        transactions=(Transaction(0, "t1", (0,)),),
        site_count=site_count,
        network_penalty=8.0,
    )


def overflow_instance() -> Instance:
    """t2 with a penalty, frequency and row count whose product overflows."""
    t2 = t2_instance()
    write = replace(t2.queries[0], frequency=1e12, rows_per_table={0: 1e6})
    return replace(t2, queries=(write,), network_penalty=1e300)


@pytest.fixture
def t1() -> Instance:
    return t1_instance()


@pytest.fixture
def t2() -> Instance:
    return t2_instance()


# ---------------------------------------------------------------------------
# random corpus helpers


def small_params(seed: int, **overrides) -> GenParams:
    """Parameters for instances small enough to enumerate."""
    defaults = dict(
        transaction_count=3,
        table_count=2,
        max_queries_per_transaction=2,
        update_percent=30.0,
        max_attributes_per_table=3,
        max_table_refs_per_query=2,
        max_attribute_refs_per_query=4,
        seed=seed,
    )
    defaults.update(overrides)
    return GenParams(**defaults)


def random_instance(seed: int, site_count: int = 2, **overrides) -> Instance:
    kwargs = {}
    for key in ("network_penalty", "cost_weight", "latency_penalty"):
        if key in overrides:
            kwargs[key] = overrides.pop(key)
    return generate(small_params(seed, **overrides), site_count=site_count, **kwargs)


def fractional_instance(seed: int, network_penalty: float) -> Instance:
    """A random instance with non-integer frequencies and row counts, and
    widths that are not powers of two."""
    inst = random_instance(seed, site_count=2 + seed % 2, network_penalty=network_penalty,
                           update_percent=40.0, table_count=4, max_attributes_per_table=5,
                           allowed_widths=(3, 5, 12))
    queries = tuple(
        replace(q, frequency=(q.id % 5 + 1) / 3,
                rows_per_table={t: r * 1.1 + 0.05 * q.id for t, r in q.rows_per_table.items()})
        for q in inst.queries
    )
    return replace(inst, queries=queries)


def random_partitioning(instance: Instance, rng: np.random.Generator) -> Partitioning:
    """A feasible layout: random transaction homes, replicas forced at
    every reader's home plus random extras."""
    n_t, n_a, n_s = (
        instance.transaction_count,
        instance.attribute_count,
        instance.site_count,
    )
    txn_site = rng.integers(0, n_s, n_t)
    replica = rng.random((n_a, n_s)) < 0.3
    reads = _reads_matrix(instance)  # (A, T)
    for t in range(n_t):
        for a in range(n_a):
            if reads[a, t]:
                replica[a, txn_site[t]] = True
    for a in range(n_a):
        if not replica[a].any():
            replica[a, rng.integers(0, n_s)] = True
    return Partitioning(txn_site=txn_site, replica=replica)


def folded_price(instance: Instance, model, part: Partitioning) -> Tuple[float, float]:
    """Objective and score of a layout through the folded coefficients
    :func:`derive` builds, the price the annealer's repairs report: per
    co-located (attribute, transaction) pair and per replica, with the
    latency charge of every write query that sees a replica off its
    transaction's site."""
    x, rep = part.txn_site, part.replica
    on_site = rep[:, x]  # (A, T)
    counts = rep.sum(axis=1).astype(float)
    objective = float((model.coloc_cost * on_site).sum()) + float(model.replica_cost @ counts)
    loads = rep.T.astype(float) @ model.replica_load
    np.add.at(loads, x, (model.coloc_load * on_site).sum(axis=0))
    latency = 0.0
    if instance.latency_penalty is not None:
        off_home = counts[:, None] - rep[:, x[model.write_txn]]  # (A, W)
        remote = (model.write_attr_access & (off_home > 0)).any(axis=0)
        latency = instance.latency_penalty * float(model.write_frequencies[remote].sum())
    lam = instance.cost_weight
    return objective, lam * (objective + latency) + (1.0 - lam) * float(loads.max())


def _reads_matrix(instance: Instance) -> np.ndarray:
    reads = np.zeros((instance.attribute_count, instance.transaction_count), dtype=bool)
    for txn in instance.transactions:
        for qid in txn.query_ids:
            q = instance.queries[qid]
            if not q.is_write:
                for a in q.accessed_attributes:
                    reads[a, txn.id] = True
    return reads


# ---------------------------------------------------------------------------
# the definitional oracle


def oracle_flags(instance: Instance):
    """Indicator tensors built attribute by attribute, query by query."""
    n_a, n_q, n_t = (
        instance.attribute_count,
        instance.query_count,
        instance.transaction_count,
    )
    alpha = np.zeros((n_a, n_q))
    beta = np.zeros((n_a, n_q))
    gamma = np.zeros((n_q, n_t))
    delta = np.zeros(n_q)
    weight = np.zeros((n_a, n_q))
    for q in instance.queries:
        if q.is_write:
            delta[q.id] = 1.0
        for a in q.accessed_attributes:
            alpha[a, q.id] = 1.0
        for table_id, rows in q.rows_per_table.items():
            for a in instance.tables[table_id].attribute_ids:
                beta[a, q.id] = 1.0
                weight[a, q.id] = instance.attributes[a].width * q.frequency * rows
    for txn in instance.transactions:
        for qid in txn.query_ids:
            gamma[qid, txn.id] = 1.0
    return alpha, beta, gamma, delta, weight


def oracle_cost(
    instance: Instance, partitioning: Partitioning
) -> Dict[str, object]:
    """Price a layout by literal sums over (a, t, s, q)."""
    alpha, beta, gamma, delta, weight = oracle_flags(instance)
    n_a, n_q, n_t, n_s = (
        instance.attribute_count,
        instance.query_count,
        instance.transaction_count,
        instance.site_count,
    )
    x = np.zeros((n_t, n_s))
    for t in range(n_t):
        x[t, partitioning.txn_site[t]] = 1.0
    y = partitioning.replica.astype(float)

    read_access = 0.0
    transfer = 0.0
    for a in range(n_a):
        for q in range(n_q):
            for t in range(n_t):
                for s in range(n_s):
                    read_access += (
                        weight[a, q] * beta[a, q] * gamma[q, t]
                        * (1.0 - delta[q]) * x[t, s] * y[a, s]
                    )
                    transfer += (
                        weight[a, q] * alpha[a, q] * gamma[q, t]
                        * delta[q] * (1.0 - x[t, s]) * y[a, s]
                    )
    write_access = 0.0
    for a in range(n_a):
        for q in range(n_q):
            for s in range(n_s):
                write_access += weight[a, q] * beta[a, q] * delta[q] * y[a, s]

    loads = np.zeros(n_s)
    for s in range(n_s):
        for a in range(n_a):
            for q in range(n_q):
                loads[s] += weight[a, q] * beta[a, q] * delta[q] * y[a, s]
                for t in range(n_t):
                    loads[s] += (
                        weight[a, q] * beta[a, q] * gamma[q, t]
                        * (1.0 - delta[q]) * x[t, s] * y[a, s]
                    )

    objective = read_access + write_access + instance.network_penalty * transfer
    latency: Optional[float] = None
    if instance.latency_penalty is not None:
        remote = 0.0
        for q in instance.queries:
            if not q.is_write:
                continue
            home = partitioning.txn_site[_txn_of_query(instance, q.id)]
            sees_remote = any(
                partitioning.replica[a, s]
                for a in q.accessed_attributes
                for s in range(n_s)
                if s != home
            )
            if sees_remote:
                remote += q.frequency
        latency = instance.latency_penalty * remote
    lam = instance.cost_weight
    score = lam * (objective + (latency or 0.0)) + (1.0 - lam) * loads.max()
    return {
        "read_access": read_access,
        "write_access": write_access,
        "transfer": transfer,
        "objective": objective,
        "loads": loads,
        "max_load": float(loads.max()),
        "latency": latency,
        "score": score,
    }


def _txn_of_query(instance: Instance, query_id: int) -> int:
    for txn in instance.transactions:
        if query_id in txn.query_ids:
            return txn.id
    raise AssertionError(f"query {query_id} belongs to no transaction")


# ---------------------------------------------------------------------------
# lifted integer-program points


def lifted_point(model, txn_site, replica) -> np.ndarray:
    """Assemble the full variable vector of a MipModel with u = x*y."""
    T, A, S = model.n_txns, model.n_attrs, model.n_sites
    values = np.zeros(model.variable_count)
    for t in range(T):
        values[model.x_index(t, txn_site[t])] = 1.0
    for a in range(A):
        for s in range(S):
            values[model.y_index(a, s)] = 1.0 if replica[a, s] else 0.0
    for t in range(T):
        for a in range(A):
            for s in range(S):
                values[model.u_index(t, a, s)] = (
                    values[model.x_index(t, s)] * values[model.y_index(a, s)]
                )
    return values


def set_load_and_latency(model, instance, values, breakdown) -> np.ndarray:
    """Fill the load bound and, if present, the remote-write flags."""
    values[model.m_index] = breakdown.max_load
    if model.has_latency:
        for pos, qid in enumerate(model.write_query_ids):
            q = instance.queries[qid]
            home = values[
                model.x_index(_txn_of_query(instance, qid), 0) :
                model.x_index(_txn_of_query(instance, qid), 0) + model.n_sites
            ]
            home_site = int(np.argmax(home))
            remote = any(
                values[model.y_index(a, s)] > 0.5
                for a in q.accessed_attributes
                for s in range(model.n_sites)
                if s != home_site
            )
            values[model.psi_index(pos)] = 1.0 if remote else 0.0
    return values


def check_point(model, values, atol=1e-9):
    """Names of the rows the variable vector violates."""
    lhs = model.matrix @ values
    bad = (lhs < model.row_lower - atol) | (lhs > model.row_upper + atol)
    names = model.row_names()
    return [names[i] for i in np.flatnonzero(bad)]


def oracle_best(instance: Instance, forbid_replication: bool = False):
    """Exhaustive search over all layouts using only the oracle pricing."""
    from itertools import product

    n_t, n_a, n_s = (
        instance.transaction_count,
        instance.attribute_count,
        instance.site_count,
    )
    site_sets = (
        [frozenset((s,)) for s in range(n_s)]
        if forbid_replication
        else [
            frozenset(c)
            for mask in range(1, 1 << n_s)
            for c in [[s for s in range(n_s) if mask >> s & 1]]
        ]
    )
    reads = _reads_matrix(instance)
    best: Optional[Tuple[float, Partitioning, Dict[str, object]]] = None
    for homes in product(range(n_s), repeat=n_t):
        txn_site = np.array(homes, dtype=np.int64)
        for combo in product(site_sets, repeat=n_a):
            ok = all(
                homes[t] in combo[a]
                for a in range(n_a)
                for t in range(n_t)
                if reads[a, t]
            )
            if not ok:
                continue
            replica = np.zeros((n_a, n_s), dtype=bool)
            for a, sites in enumerate(combo):
                for s in sites:
                    replica[a, s] = True
            part = Partitioning(txn_site=txn_site, replica=replica)
            priced = oracle_cost(instance, part)
            if best is None or priced["score"] < best[0] - 1e-12:
                best = (float(priced["score"]), part, priced)
    assert best is not None
    return best
