"""Schema, workload, and statistics model.

An :class:`Instance` bundles the relational schema (tables and attributes
with byte widths), the transactional workload (transactions made of read
and write queries with row-count statistics), and the advisor settings
(site count, network penalty, cost/load mix weight, optional latency
penalty).  :func:`derive` turns a validated instance into the dense
matrices the evaluators and solvers consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .errors import ValidationError

READ = "read"
WRITE = "write"
QUERY_KINDS = (READ, WRITE)


@dataclass(frozen=True)
class Attribute:
    """A single column: belongs to one table and occupies ``width`` bytes."""

    id: int
    table_id: int
    name: str
    width: int


@dataclass(frozen=True)
class Table:
    id: int
    name: str
    attribute_ids: tuple[int, ...]


@dataclass(frozen=True)
class Query:
    """One read or write step of a transaction.

    ``accessed_attributes`` lists the columns the query touches directly
    (reads retrieve them, writes modify them).  ``rows_per_table`` gives the
    average number of rows the query retrieves from / writes to each table
    it touches; the keys must be exactly the tables of the accessed
    attributes.
    """

    id: int
    name: str
    kind: str
    frequency: float
    accessed_attributes: frozenset[int]
    rows_per_table: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "accessed_attributes",
                           frozenset(self.accessed_attributes))
        object.__setattr__(self, "rows_per_table",
                           MappingProxyType(dict(self.rows_per_table)))

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE


@dataclass(frozen=True)
class Transaction:
    id: int
    name: str
    query_ids: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """A complete advisor problem: schema + workload + settings.

    ``network_penalty`` prices one transferred byte relative to one locally
    accessed byte.  ``cost_weight`` mixes total access cost (weight
    ``cost_weight``) against the maximum per-site load (weight
    ``1 - cost_weight``).  ``latency_penalty`` — when set — prices each
    write query that must reach a replica off its transaction's site.
    """

    tables: tuple[Table, ...]
    attributes: tuple[Attribute, ...]
    queries: tuple[Query, ...]
    transactions: tuple[Transaction, ...]
    site_count: int
    network_penalty: float = 8.0
    cost_weight: float = 0.1
    latency_penalty: Optional[float] = None

    @property
    def attribute_count(self) -> int:
        return len(self.attributes)

    @property
    def transaction_count(self) -> int:
        return len(self.transactions)

    @property
    def query_count(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class CostModel:
    """Dense matrices derived from an instance once, read by every
    evaluator, repair and solver.

    With the byte weight ``W[a, q] = width(a) * frequency(q) *
    rows(q, table(a))`` of each query touching ``a``'s table, the per-query
    sums fold into per-(attribute, transaction) and per-attribute blocks:

    * ``coloc_cost[a, t]`` — objective contribution when ``a`` shares a site
      with ``t`` (reads of the fraction minus the transfer the co-located
      replica avoids).
    * ``replica_cost[a]`` — objective contribution of every replica of ``a``
      (write upkeep plus priced transfer).
    * ``coloc_load[a, t]`` — read work added to ``t``'s site when ``a``
      lives there; it is also the read-access cost.
    * ``replica_load[a]`` — write work added to every site holding ``a``;
      it is also the write-access cost per replica.
    * ``coloc_transfer[a, t]`` — bytes ``t``'s writes ship to each replica
      of ``a`` off its site, before the network penalty.

    A replica of ``a`` on site ``s`` costs ``replica_cost[a]`` plus
    ``coloc_cost[a, t]`` for each transaction ``t`` on ``s``: read work,
    write upkeep and the transfer of other sites' writes, so it is never
    negative but for rounding (an ulp of the penalty-scaled terms, from
    network penalties of about ``2**52``).  A replica that no read forces
    never lowers the score.  The folding cancels penalty-scaled transfer
    savings against penalty-scaled charges, so at penalties near ``1e16``
    a layout's folded objective, the price the annealer's repair steers
    by, can be off from :func:`evaluate`'s sums by its own size on
    non-integral inputs; reported scores are re-priced by ``evaluate``.

    Flags (boolean):

    * ``attr_access[a, q]`` — query ``q`` touches attribute ``a`` directly.
    * ``txn_reads[a, t]`` — some read query of ``t`` touches ``a`` directly,
      so ``a`` must be co-located with ``t``'s site.

    The write queries, which the latency charge reads on every
    evaluation: ``write_queries`` (their ids, ascending),
    ``write_attr_access = attr_access[:, write_queries]``, and each one's
    transaction ``write_txn`` and frequency ``write_frequencies``.
    """

    attr_access: np.ndarray
    txn_reads: np.ndarray
    coloc_cost: np.ndarray
    replica_cost: np.ndarray
    coloc_load: np.ndarray
    replica_load: np.ndarray
    coloc_transfer: np.ndarray
    write_queries: np.ndarray
    write_attr_access: np.ndarray
    write_txn: np.ndarray
    write_frequencies: np.ndarray


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def validate(instance: Instance) -> list[str]:
    """Check structural invariants; return a list of violation messages.

    An empty list means the instance is well formed.  Messages carry enough
    context (names/ids) to locate the offending object.
    """
    out: list[str] = []

    for i, table in enumerate(instance.tables):
        if table.id != i:
            out.append(f"table '{table.name}': id {table.id} is not dense (expected {i})")
    for i, attr in enumerate(instance.attributes):
        if attr.id != i:
            out.append(f"attribute '{attr.name}': id {attr.id} is not dense (expected {i})")
    for i, q in enumerate(instance.queries):
        if q.id != i:
            out.append(f"query '{q.name}': id {q.id} is not dense (expected {i})")
    for i, txn in enumerate(instance.transactions):
        if txn.id != i:
            out.append(f"transaction '{txn.name}': id {txn.id} is not dense (expected {i})")

    n_tables = len(instance.tables)
    n_attrs = len(instance.attributes)
    n_queries = len(instance.queries)

    seen_attr = [None] * n_attrs
    for table in instance.tables:
        if not table.attribute_ids:
            out.append(f"table '{table.name}' has no attributes")
        for a in table.attribute_ids:
            if not (0 <= a < n_attrs):
                out.append(f"table '{table.name}' references unknown attribute id {a}")
            elif seen_attr[a] is not None:
                out.append(
                    f"attribute id {a} listed by both table '{seen_attr[a]}' and '{table.name}'")
            else:
                seen_attr[a] = table.name

    for attr in instance.attributes:
        if not (0 <= attr.table_id < n_tables):
            out.append(f"attribute '{attr.name}' references unknown table id {attr.table_id}")
        else:
            table = instance.tables[attr.table_id]
            if attr.id not in table.attribute_ids:
                out.append(
                    f"attribute '{attr.name}' claims table '{table.name}' "
                    f"but the table does not list it")
        if not isinstance(attr.width, int) or isinstance(attr.width, bool) or attr.width < 1:
            out.append(f"attribute '{attr.name}': width must be >= 1 (got {attr.width!r})")

    for q in instance.queries:
        if q.kind not in QUERY_KINDS:
            out.append(f"query '{q.name}': unknown kind {q.kind!r}")
        if not (math.isfinite(q.frequency) and q.frequency >= 0):
            out.append(
                f"query '{q.name}': frequency must be finite and nonnegative (got {q.frequency!r})")
        if not q.accessed_attributes:
            out.append(f"query '{q.name}' accesses no attributes")
        touched_tables = set()
        for a in q.accessed_attributes:
            if not (0 <= a < n_attrs):
                out.append(f"query '{q.name}' references unknown attribute id {a}")
            else:
                touched_tables.add(instance.attributes[a].table_id)
        for table_id, rows in q.rows_per_table.items():
            if not (0 <= table_id < n_tables):
                out.append(f"query '{q.name}': row count for unknown table id {table_id}")
            elif table_id not in touched_tables:
                out.append(
                    f"query '{q.name}': row count listed for table "
                    f"'{instance.tables[table_id].name}' but no attribute of it is accessed")
            elif not (math.isfinite(rows) and rows > 0):
                out.append(
                    f"query '{q.name}': row count for table "
                    f"'{instance.tables[table_id].name}' must be finite and > 0 (got {rows!r})")
        for table_id in touched_tables:
            if table_id not in q.rows_per_table:
                if 0 <= table_id < n_tables:
                    out.append(
                        f"query '{q.name}' accesses table "
                        f"'{instance.tables[table_id].name}' but lists no row count for it")

    owner = [None] * n_queries
    for txn in instance.transactions:
        if not txn.query_ids:
            out.append(f"transaction '{txn.name}' has no queries")
        for qid in txn.query_ids:
            if not (0 <= qid < n_queries):
                out.append(f"transaction '{txn.name}' references unknown query id {qid}")
            elif owner[qid] is not None:
                out.append(
                    f"query id {qid} belongs to both transaction "
                    f"'{owner[qid]}' and '{txn.name}'")
            else:
                owner[qid] = txn.name
    for qid, own in enumerate(owner):
        if own is None:
            out.append(f"query '{instance.queries[qid].name}' belongs to no transaction")

    if instance.site_count < 1:
        out.append(f"site count must be >= 1 (got {instance.site_count})")
    if not (math.isfinite(instance.network_penalty) and instance.network_penalty >= 0):
        out.append(
            f"network penalty must be finite and nonnegative (got {instance.network_penalty!r})")
    if not (0.0 <= instance.cost_weight <= 1.0):
        out.append(f"cost weight must lie in [0, 1] (got {instance.cost_weight!r})")
    if instance.latency_penalty is not None and not (
            math.isfinite(instance.latency_penalty) and instance.latency_penalty >= 0):
        out.append(
            f"latency penalty must be finite and nonnegative (got {instance.latency_penalty!r})")

    return out


def lint(instance: Instance) -> list[str]:
    """Advisory warnings that do not make an instance invalid.

    Currently flags write queries whose transaction never reads the written
    table — usually a sign that an update was encoded without its read half.
    """
    warnings: list[str] = []
    for txn in instance.transactions:
        read_tables = set()
        for qid in txn.query_ids:
            q = instance.queries[qid]
            if not q.is_write:
                for a in q.accessed_attributes:
                    read_tables.add(instance.attributes[a].table_id)
        for qid in txn.query_ids:
            q = instance.queries[qid]
            if q.is_write:
                for table_id in q.rows_per_table:
                    if table_id not in read_tables:
                        warnings.append(
                            f"transaction '{txn.name}': write query '{q.name}' touches table "
                            f"'{instance.tables[table_id].name}' that the transaction never reads")
                        break
    return warnings


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported below
def derive(instance: Instance) -> CostModel:
    """Build the dense flag matrices and folded cost coefficients.

    Raises :class:`ValidationError` carrying the violation list when the
    instance is not well formed, or when the coefficients leave no finite
    bound on a layout's score (the inputs multiply past the float range).
    """
    violations = validate(instance)
    if violations:
        raise ValidationError(violations)

    n_a = instance.attribute_count
    n_q = instance.query_count
    n_t = instance.transaction_count

    widths = np.array([a.width for a in instance.attributes], dtype=np.float64)
    freqs = np.array([q.frequency for q in instance.queries], dtype=np.float64)

    attr_access = np.zeros((n_a, n_q), dtype=bool)
    rows = np.zeros((n_a, n_q), dtype=np.float64)
    is_write = np.zeros(n_q, dtype=bool)

    for q in instance.queries:
        is_write[q.id] = q.is_write
        for a in q.accessed_attributes:
            attr_access[a, q.id] = True
        for table_id, count in q.rows_per_table.items():
            members = np.asarray(instance.tables[table_id].attribute_ids, dtype=np.int64)
            rows[members, q.id] = count

    txn_of_query = np.zeros(n_q, dtype=np.int64)
    for txn in instance.transactions:
        for qid in txn.query_ids:
            txn_of_query[qid] = txn.id

    def by_txn(per_query: np.ndarray) -> np.ndarray:
        """Fold (A, Q) over each transaction's queries, added in ascending
        query id, into a C-ordered (A, T) array: ``mip._compact_model``'s
        sums over it follow that order.  A product with a one-hot (Q, T)
        matrix sums the same, but through a threaded BLAS kernel that made
        ``derive`` several times slower in repeated commands."""
        out = np.zeros((n_a, n_t), dtype=np.float64)
        np.add.at(out.T, txn_of_query, per_query.T)
        return out

    # txn_reads[a, t]: some read query of t touches a directly
    read_access = attr_access & ~is_write[None, :]
    txn_reads = by_txn(read_access.astype(np.float64)) > 0.0

    access_weight = widths[:, None] * freqs[None, :] * rows

    penalty = float(instance.network_penalty)
    write_f = is_write.astype(np.float64)
    read_f = 1.0 - write_f
    attr_f = attr_access.astype(np.float64)

    # Per-(attribute, query) objective weights, then folded over queries.
    # access_weight is already 0 off the tables a query touches.
    coloc_q = access_weight * (read_f[None, :] - penalty * attr_f * write_f[None, :])
    coloc_cost = by_txn(coloc_q)
    replica_cost = (access_weight * write_f[None, :] * (1.0 + penalty * attr_f)).sum(axis=1)

    coloc_load = by_txn(access_weight * read_f[None, :])
    replica_load = (access_weight * write_f[None, :]).sum(axis=1)
    coloc_transfer = by_txn(access_weight * attr_f * write_f[None, :])

    # No layout's score exceeds this bound in magnitude; NaN fails too.
    sites = instance.site_count
    bound = (np.abs(coloc_cost).sum() + sites * np.abs(replica_cost).sum()
             + coloc_load.sum() + sites * replica_load.sum())
    if instance.latency_penalty is not None:
        bound += instance.latency_penalty * freqs[is_write].sum()
    if not math.isfinite(bound):
        raise ValidationError([
            f"costs overflow: the network penalty ({penalty!r}), latency penalty, "
            f"frequencies, row counts and widths multiply past the float range"])

    writes = np.flatnonzero(is_write)
    return CostModel(
        attr_access=_freeze(attr_access),
        txn_reads=_freeze(txn_reads),
        coloc_cost=_freeze(coloc_cost),
        replica_cost=_freeze(replica_cost),
        coloc_load=_freeze(coloc_load),
        replica_load=_freeze(replica_load),
        coloc_transfer=_freeze(coloc_transfer),
        write_queries=_freeze(writes),
        write_attr_access=_freeze(attr_access[:, writes]),
        write_txn=_freeze(txn_of_query[writes]),
        write_frequencies=_freeze(freqs[writes]),
    )
