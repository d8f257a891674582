"""Attribute grouping and transaction ordering."""
from __future__ import annotations

import numpy as np
import pytest

from vpadvisor import (
    Attribute,
    Instance,
    Partitioning,
    Query,
    Table,
    Transaction,
    brute_force,
    derive,
    evaluate,
    expand_solution,
    group_attributes,
    validate,
)

from conftest import random_instance


def _with_cost_weight(instance: Instance, lam: float) -> Instance:
    from dataclasses import replace

    return replace(instance, cost_weight=lam)


def test_groups_partition_attributes_within_tables():
    inst = random_instance(2)
    reduced, grouping = group_attributes(inst, derive(inst))
    assert validate(reduced) == []
    # partition property
    seen = sorted(a for g in grouping.groups for a in g)
    assert seen == list(range(inst.attribute_count))
    # single-table property and width addition
    for g, members in enumerate(grouping.groups):
        tables = {inst.attributes[a].table_id for a in members}
        assert len(tables) == 1
        assert reduced.attributes[g].width == sum(
            inst.attributes[a].width for a in members
        )


def test_group_members_share_access_patterns():
    inst = random_instance(5)
    model = derive(inst)
    _, grouping = group_attributes(inst, model)
    for members in grouping.groups:
        first = model.attr_access[members[0]]
        for a in members[1:]:
            assert (model.attr_access[a] == first).all()


def test_grouping_is_idempotent():
    inst = random_instance(7)
    reduced, _ = group_attributes(inst, derive(inst))
    again, grouping2 = group_attributes(reduced, derive(reduced))
    assert again.attribute_count == reduced.attribute_count
    assert all(len(g) == 1 for g in grouping2.groups)


def test_never_accessed_attributes_merge_per_table():
    # two attributes nobody accesses in the same table collapse together
    inst = Instance(
        tables=(Table(0, "R", (0, 1, 2)),),
        attributes=(
            Attribute(0, 0, "a", 4),
            Attribute(1, 0, "pad1", 8),
            Attribute(2, 0, "pad2", 2),
        ),
        queries=(Query(0, "q", "read", 1.0, (0,), {0: 1}),),
        transactions=(Transaction(0, "t", (0,)),),
        site_count=2,
    )
    reduced, grouping = group_attributes(inst, derive(inst))
    assert reduced.attribute_count == 2
    assert (1, 2) in grouping.groups
    merged = next(g for g in range(2) if grouping.groups[g] == (1, 2))
    assert reduced.attributes[merged].width == 10


def test_expand_solution_preserves_costs_exactly():
    inst = random_instance(11)
    model = derive(inst)
    reduced, grouping = group_attributes(inst, model)
    reduced_model = derive(reduced)
    rng = np.random.default_rng(3)
    from conftest import random_partitioning

    part = random_partitioning(reduced, rng)
    expanded = expand_solution(part, grouping)
    got = evaluate(inst, model, expanded)
    want = evaluate(reduced, reduced_model, part)
    assert got.objective == pytest.approx(want.objective, abs=1e-9)
    assert got.score == pytest.approx(want.score, abs=1e-9)
    np.testing.assert_allclose(got.site_loads, want.site_loads, atol=1e-9)


def test_expand_solution_rejects_wrong_shape():
    inst = random_instance(1)
    _, grouping = group_attributes(inst, derive(inst))
    bad = Partitioning(
        txn_site=np.zeros(inst.transaction_count, dtype=np.int64),
        replica=np.ones((grouping.group_count + 1, inst.site_count), dtype=bool),
    )
    with pytest.raises(ValueError):
        expand_solution(bad, grouping)


@pytest.mark.parametrize("seed", range(8))
def test_grouped_optimum_equals_original_at_pure_cost(seed):
    # with the score reduced to the byte objective (lambda=1), merging
    # indistinguishable attributes cannot change the optimum
    inst = _with_cost_weight(random_instance(seed), 1.0)
    reduced, _ = group_attributes(inst, derive(inst))
    orig = brute_force(inst)
    grouped = brute_force(reduced)
    assert grouped.score == pytest.approx(orig.score, rel=1e-12)


def test_grouping_can_restrict_load_balancing_below_lambda_one():
    # regression pin: a split group can balance load better than a merged
    # one, so the equality above is specific to lambda=1
    inst = Instance(
        tables=(Table(0, "R", (0, 1)),),
        attributes=(Attribute(0, 0, "a", 4), Attribute(1, 0, "b", 4)),
        queries=(Query(0, "q", "write", 1.0, (0, 1), {0: 1}),),
        transactions=(Transaction(0, "t", (0,)),),
        site_count=2,
        network_penalty=8.0,
        cost_weight=0.1,
    )
    reduced, _ = group_attributes(inst, derive(inst))
    assert reduced.attribute_count == 1
    orig = brute_force(inst)
    grouped = brute_force(reduced)
    assert orig.score < grouped.score
