"""Instance-size reductions.

Attributes of the same table that every query treats identically can be
merged into one representative carrying the summed width: no query can
tell group members apart, so any placement can be equalized across a
group without changing the pure byte objective.  (When the score also
weighs the maximum site load, splitting a group across sites can still
help balance — the merge is exact for the pure-cost objective and a
mild restriction otherwise; see the test suite.)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partitioning import Partitioning
from .workload import Attribute, CostModel, Instance, Query, Table


@dataclass(frozen=True)
class AttributeGrouping:
    """Mapping between original attributes and merged representatives.

    ``groups[g]`` lists the original attribute ids merged into grouped
    attribute ``g`` (ascending); ``group_of[a]`` is the inverse.
    """

    groups: tuple[tuple[int, ...], ...]
    group_of: tuple[int, ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)


def group_attributes(instance: Instance, model: CostModel) -> tuple[Instance, AttributeGrouping]:
    """Merge same-table attributes with identical per-query access flags.

    Returns the reduced instance plus the grouping needed to expand a
    layout of the reduced instance back to the original attribute set.
    Grouped attributes keep the table structure; widths add up; queries
    and transactions carry over with remapped attribute references.
    """
    n_attrs = instance.attribute_count
    group_of = [-1] * n_attrs
    groups: list[list[int]] = []

    for table in instance.tables:
        by_pattern: dict[bytes, int] = {}
        for a in table.attribute_ids:  # ascending within a table
            key = model.attr_access[a].tobytes()
            g = by_pattern.get(key)
            if g is None:
                g = len(groups)
                by_pattern[key] = g
                groups.append([])
            groups[g].append(a)
            group_of[a] = g

    new_attrs: list[Attribute] = []
    new_tables: list[Table] = []
    for table in instance.tables:
        member_groups = sorted({group_of[a] for a in table.attribute_ids})
        ids = []
        for g in member_groups:
            members = groups[g]
            name = instance.attributes[members[0]].name
            if len(members) > 1:
                name = "+".join(instance.attributes[a].name for a in members)
            new_attrs.append(Attribute(
                id=g, table_id=table.id, name=name,
                width=sum(instance.attributes[a].width for a in members)))
            ids.append(g)
        new_tables.append(Table(id=table.id, name=table.name, attribute_ids=tuple(ids)))
    new_attrs.sort(key=lambda attr: attr.id)

    new_queries = []
    for q in instance.queries:
        new_queries.append(Query(
            id=q.id, name=q.name, kind=q.kind, frequency=q.frequency,
            accessed_attributes=frozenset(group_of[a] for a in q.accessed_attributes),
            rows_per_table=dict(q.rows_per_table)))

    reduced = Instance(
        tables=tuple(new_tables),
        attributes=tuple(new_attrs),
        queries=tuple(new_queries),
        transactions=instance.transactions,
        site_count=instance.site_count,
        network_penalty=instance.network_penalty,
        cost_weight=instance.cost_weight,
        latency_penalty=instance.latency_penalty,
    )
    grouping = AttributeGrouping(
        groups=tuple(tuple(g) for g in groups),
        group_of=tuple(group_of),
    )
    return reduced, grouping


def expand_solution(partitioning: Partitioning,
                    grouping: AttributeGrouping) -> Partitioning:
    """Expand a layout of the reduced instance to the original attributes.

    Every group member inherits the representative's replica set; the
    transaction assignment is unchanged.  Feasibility and every cost
    component are preserved exactly.
    """
    if partitioning.replica.shape[0] != grouping.group_count:
        raise ValueError(
            f"layout places {partitioning.replica.shape[0]} attributes, "
            f"grouping has {grouping.group_count} groups")
    rows = np.asarray(grouping.group_of, dtype=np.int64)
    return Partitioning(partitioning.txn_site, partitioning.replica[rows])
