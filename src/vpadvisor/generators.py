"""Seeded random benchmark instances.

The generator draws every structural quantity uniformly between 1 and a
configurable upper bound — attributes per table, queries per
transaction, tables per query, attribute references per query — with a
fixed percentage of write queries and widths drawn from a small menu.
All draws come from one seeded PCG64 stream in a frozen order, so equal
parameters yield byte-identical instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError
from .workload import Attribute, Instance, Query, Table, Transaction, validate


@dataclass(frozen=True)
class GenParams:
    """Upper bounds and rates for random instances.

    ``max_queries_per_transaction``, ``update_percent``,
    ``max_attributes_per_table``, ``max_table_refs_per_query``,
    ``max_attribute_refs_per_query``, and ``allowed_widths`` mirror the
    conventional benchmark knobs (defaults 3, 10, 15, 5, 15, {4, 8});
    each per-entity count is drawn uniformly from 1 to its bound.
    """

    transaction_count: int = 20
    table_count: int = 20
    max_queries_per_transaction: int = 3
    update_percent: float = 10.0
    max_attributes_per_table: int = 15
    max_table_refs_per_query: int = 5
    max_attribute_refs_per_query: int = 15
    allowed_widths: Tuple[int, ...] = (4, 8)
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        for field in (
            "transaction_count",
            "table_count",
            "max_queries_per_transaction",
            "max_attributes_per_table",
            "max_table_refs_per_query",
            "max_attribute_refs_per_query",
        ):
            if getattr(self, field) < 1:
                problems.append(f"{field} must be at least 1")
        if self.seed < 0:
            problems.append("seed must be nonnegative")
        if not 0.0 <= self.update_percent <= 100.0:
            problems.append("update_percent must lie in [0, 100]")
        if not self.allowed_widths:
            problems.append("allowed_widths must be nonempty")
        elif any(int(w) != w or w < 1 for w in self.allowed_widths):
            problems.append("allowed_widths must be positive integers")
        if problems:
            raise ValueError("; ".join(problems))


def generate(
    params: GenParams,
    *,
    site_count: int = 2,
    network_penalty: float = 8.0,
    cost_weight: float = 0.1,
    latency_penalty: Optional[float] = None,
) -> Instance:
    """Draw one random instance, deterministic in ``params.seed``.

    Frozen draw order: per table its attribute count then widths; then
    per transaction its query count, and per query the write flag,
    table count, table choice, reference count, attribute choice, and
    rows per touched table (uniform 1..10).  A query's row map covers
    exactly the tables of its sampled attributes — tables chosen but
    left unsampled are dropped.  Raises :class:`ValidationError` when
    the settings (site count, penalties, cost weight) are invalid.
    """
    rng = np.random.Generator(np.random.PCG64(params.seed))
    widths_menu = np.asarray(sorted(set(int(w) for w in params.allowed_widths)), dtype=np.int64)

    tables = []
    attributes = []
    table_members: list[list[int]] = []
    for i in range(params.table_count):
        n_attrs = int(rng.integers(1, params.max_attributes_per_table + 1))
        picks = rng.integers(0, widths_menu.size, size=n_attrs)
        members = []
        for j in range(n_attrs):
            aid = len(attributes)
            attributes.append(
                Attribute(id=aid, table_id=i, name=f"c{j}", width=int(widths_menu[picks[j]]))
            )
            members.append(aid)
        table_members.append(members)
        tables.append(Table(id=i, name=f"tab{i}", attribute_ids=tuple(members)))

    queries = []
    transactions = []
    write_rate = params.update_percent / 100.0
    for t in range(params.transaction_count):
        n_queries = int(rng.integers(1, params.max_queries_per_transaction + 1))
        ids = []
        for _ in range(n_queries):
            qid = len(queries)
            is_write = bool(rng.random() < write_rate)
            max_tables = min(params.max_table_refs_per_query, params.table_count)
            k = int(rng.integers(1, max_tables + 1))
            chosen = np.sort(rng.choice(params.table_count, size=k, replace=False))
            pool = np.asarray(
                [a for tab in chosen for a in table_members[int(tab)]], dtype=np.int64
            )
            want = int(rng.integers(1, params.max_attribute_refs_per_query + 1))
            take = min(want, pool.size)
            accessed = rng.choice(pool, size=take, replace=False)
            touched_tables = sorted({int(attributes[int(a)].table_id) for a in accessed})
            rows = {tab: int(rng.integers(1, 11)) for tab in touched_tables}
            queries.append(
                Query(
                    id=qid,
                    name=f"q{qid}",
                    kind="write" if is_write else "read",
                    frequency=1.0,
                    accessed_attributes=frozenset(int(a) for a in accessed),
                    rows_per_table=rows,
                )
            )
            ids.append(qid)
        transactions.append(Transaction(id=t, name=f"t{t}", query_ids=tuple(ids)))

    instance = Instance(
        tables=tuple(tables),
        attributes=tuple(attributes),
        queries=tuple(queries),
        transactions=tuple(transactions),
        site_count=site_count,
        network_penalty=network_penalty,
        cost_weight=cost_weight,
        latency_penalty=latency_penalty,
    )
    problems = validate(instance)
    if problems:
        raise ValidationError(problems)
    return instance
