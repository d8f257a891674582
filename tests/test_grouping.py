"""Grouping attributes by reader set: the classes :func:`_reader_classes`
forms, the price of a merged layout, and the optimum of the solvers that
search the merged model."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vpadvisor import (
    Attribute,
    ExactConfig,
    Instance,
    Partitioning,
    Query,
    Table,
    Transaction,
    brute_force,
    derive,
    enumeration_size,
    evaluate,
    solve_exact,
    tpcc,
    weighted_score,
)
from vpadvisor.anneal import _RepairTables, solve_subproblem_fix_transactions
from vpadvisor.partitioning import _write_latency
from vpadvisor.workload import _reader_classes

from conftest import fractional_instance, random_instance

INSTANCES = {
    **{f"random-{seed}": (lambda seed=seed: random_instance(seed, site_count=3))
       for seed in range(8)},
    "fractional": lambda: fractional_instance(5, 3.3),
    "tpcc": lambda: tpcc(site_count=2),
}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_classes_partition_the_attributes(name):
    model = derive(INSTANCES[name]())
    merged, classes = _reader_classes(model)
    n_classes = merged.replica_cost.size
    assert classes.shape == model.replica_cost.shape
    assert np.array_equal(np.unique(classes), np.arange(n_classes))
    for rows, whole in ((merged.coloc_cost, model.coloc_cost),
                        (merged.replica_load, model.replica_load)):
        assert rows.shape == (n_classes,) + whole.shape[1:]


@pytest.mark.parametrize("name", list(INSTANCES))
def test_class_members_share_reader_sets(name):
    model = derive(INSTANCES[name]())
    merged, classes = _reader_classes(model)
    read = model.txn_reads.any(axis=1)
    for c in range(merged.replica_cost.size):
        members = np.flatnonzero(classes == c)
        assert (model.txn_reads[members] == merged.txn_reads[c]).all()
        written = model.write_attr_access[members].any(axis=0)
        assert np.array_equal(merged.write_attr_access[c], written)
        for rows, whole in ((merged.coloc_cost, model.coloc_cost),
                            (merged.replica_cost, model.replica_cost),
                            (merged.coloc_load, model.coloc_load),
                            (merged.replica_load, model.replica_load),
                            (merged.coloc_transfer, model.coloc_transfer)):
            np.testing.assert_allclose(rows[c], whole[members].sum(axis=0), rtol=1e-15)
    # read attributes with equal reader sets are never left apart
    keys = {model.txn_reads[a].tobytes(): classes[a] for a in np.flatnonzero(read)}
    assert all(classes[a] == keys[model.txn_reads[a].tobytes()] for a in np.flatnonzero(read))


@pytest.mark.parametrize("name", list(INSTANCES))
def test_unread_and_kept_attributes_stay_singletons_in_index_order(name):
    model = derive(INSTANCES[name]())
    read = np.flatnonzero(model.txn_reads.any(axis=1))
    keep = read[::2]
    _, classes = _reader_classes(model, keep=keep)
    sizes = np.bincount(classes)
    apart = np.union1d(np.flatnonzero(~model.txn_reads.any(axis=1)), keep)
    assert (sizes[classes[apart]] == 1).all()
    # classes are numbered by their first member
    _, first = np.unique(classes, return_index=True)
    assert (np.diff(first) > 0).all()
    assert (np.diff(classes[apart]) > 0).all()


def test_grouping_is_idempotent():
    merged, _ = _reader_classes(derive(tpcc(site_count=2)))
    again, classes = _reader_classes(merged)
    assert np.array_equal(classes, np.arange(merged.replica_cost.size))
    assert np.array_equal(again.coloc_cost, merged.coloc_cost)


@pytest.mark.parametrize("seed,size", [
    *(pytest.param(seed, {}, id=str(seed)) for seed in range(8)),
    # 23 attributes, 5 of them unread: far over the default budget
    pytest.param(0, dict(site_count=3, transaction_count=8, table_count=6,
                         max_attributes_per_table=6), id="23-attributes"),
])
def test_grouped_optimum_equals_original_at_pure_cost(seed, size):
    # solve_exact searches the merged model, brute_force every layout of
    # the full one
    inst = random_instance(seed, cost_weight=1.0, **size)
    brute = brute_force(inst, budget=enumeration_size(inst))
    assert solve_exact(inst, ExactConfig(gap=0.0)).score == brute.score


def test_attributes_only_writes_touch_are_not_merged():
    # both attributes are unread, so each keeps its own replica set: at
    # lambda 0.1 splitting them across the sites balances the load
    inst = Instance(
        tables=(Table(0, "R", (0, 1)),),
        attributes=(Attribute(0, 0, "a", 4), Attribute(1, 0, "b", 4)),
        queries=(Query(0, "q", "write", 1.0, (0, 1), {0: 1}),),
        transactions=(Transaction(0, "t", (0,)),),
        site_count=2,
        network_penalty=8.0,
        cost_weight=0.1,
    )
    _, classes = _reader_classes(derive(inst))
    assert classes.tolist() == [0, 1]
    assert solve_exact(inst, ExactConfig(gap=0.0)).score == brute_force(inst).score


def _merged_repair_and_full_price(inst, rng):
    """The repair's price of a random assignment on the merged model, and
    evaluate's price of the expanded layout on the full model."""
    model = derive(inst)
    merged, classes = _reader_classes(model)
    tables = _RepairTables.build(merged, inst.site_count, inst.cost_weight)
    txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
    replica, objective, max_load = solve_subproblem_fix_transactions(txn_site, tables)
    latency = _write_latency(inst, merged, txn_site, replica, tables.write_pairs)
    full = evaluate(inst, model, Partitioning(txn_site, replica[classes]))
    got = (objective, max_load, weighted_score(objective, max_load, latency, inst.cost_weight))
    return got, (full.objective, full.max_load, full.score), (latency, full.latency)


_PROPERTY = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(st.integers(0, 10**6), st.integers(1, 4), st.floats(0.0, 1.0),
       st.sampled_from([None, 5.0]), st.integers(0, 2**32 - 1))
def test_merged_repair_prices_the_expanded_layout_exactly(seed, n_sites, lam, latency, draw):
    # integral coefficients: the merged sums cannot move a bit
    inst = random_instance(seed, site_count=n_sites, cost_weight=lam, latency_penalty=latency,
                           update_percent=50.0, table_count=3, max_attributes_per_table=4)
    got, want, latencies = _merged_repair_and_full_price(inst, np.random.default_rng(draw))
    assert got == want
    assert latencies[0] == latencies[1]


@_PROPERTY
@given(st.integers(0, 10**6), st.floats(0.0, 1.0), st.sampled_from([None, 5.0]),
       st.integers(0, 2**32 - 1))
def test_merged_repair_prices_fractional_layouts_to_rounding(seed, lam, latency, draw):
    inst = replace(fractional_instance(seed, 3.3), cost_weight=lam, latency_penalty=latency)
    got, want, latencies = _merged_repair_and_full_price(inst, np.random.default_rng(draw))
    assert got == pytest.approx(want, rel=1e-12)
    assert latencies[0] == latencies[1]
