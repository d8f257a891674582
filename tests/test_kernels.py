"""Hot-kernel correctness.

Each kernel's answer is checked on two paths: the package's definitional
pricing (:func:`evaluate`) of the layout it returns must agree with the
figure the kernel reports, and the independent oracle from conftest must
agree with both where it is cheap enough to run.
"""
from __future__ import annotations

import numpy as np
import pytest

from vpadvisor import Partitioning, derive, evaluate, evaluate_folded
from vpadvisor import kernels

from conftest import oracle_best, oracle_cost, random_instance, random_partitioning


def _enumerate(inst, model, forbid):
    """Run the enumeration kernel with the instance's write queries."""
    if inst.latency_penalty is None:
        writes, penalty = np.empty(0, dtype=np.int64), 0.0
    else:
        writes, penalty = np.flatnonzero(model.is_write), inst.latency_penalty
    return kernels.enumerate_layouts(
        model.coloc_cost,
        model.replica_cost,
        model.coloc_load,
        model.replica_load,
        model.txn_reads,
        inst.cost_weight,
        inst.site_count,
        forbid,
        model.attr_access[:, writes],
        model.txn_of_query[writes],
        model.frequencies[writes],
        penalty,
    )


def _layout_from_masks(inst, x, masks):
    replica = np.zeros((inst.attribute_count, inst.site_count), dtype=bool)
    for a in range(inst.attribute_count):
        for s in range(inst.site_count):
            replica[a, s] = bool(masks[a] >> s & 1)
    return Partitioning(txn_site=x.astype(np.int64), replica=replica)


@pytest.mark.parametrize("seed", range(10))
def test_folded_cost_paths_agree_and_match_oracle(seed):
    inst = random_instance(seed, site_count=2 + seed % 2)
    model = derive(inst)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        part = random_partitioning(inst, rng)
        objective, max_load = kernels.folded_cost(
            model.coloc_cost,
            model.replica_cost,
            model.coloc_load,
            model.replica_load,
            part.txn_site,
            part.replica,
        )
        full = evaluate(inst, model, part)
        assert objective == full.objective
        assert max_load == full.max_load
        want = oracle_cost(inst, part)
        assert objective == pytest.approx(want["objective"], abs=1e-9)
        assert max_load == pytest.approx(want["max_load"], abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_greedy_replicas_paths_agree_and_are_feasible(seed):
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed + 99)
    for _ in range(4):
        txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
        got = kernels.greedy_replicas(
            txn_site,
            model.txn_reads,
            model.coloc_cost,
            model.replica_cost,
            model.coloc_load,
            model.replica_load,
            inst.cost_weight,
            inst.site_count,
        )
        # feasibility: coverage and per-reader co-location
        assert got.any(axis=1).all()
        for t in range(inst.transaction_count):
            readers = model.txn_reads[:, t]
            assert got[readers, txn_site[t]].all()
        part = Partitioning(txn_site=txn_site, replica=got)
        assert evaluate_folded(inst, model, part).score == evaluate(inst, model, part).score


@pytest.mark.parametrize("seed", range(10))
def test_assign_transactions_paths_agree(seed):
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed + 7)
    part = random_partitioning(inst, rng)
    out = kernels.assign_transactions(
        part.replica,
        model.txn_reads,
        model.coloc_cost,
        model.coloc_load,
        model.replica_load,
        inst.cost_weight,
        np.arange(inst.transaction_count),
    )
    # the layout random_partitioning built places every reader, so every
    # transaction fits somewhere, and each lands with all it reads
    assert (out >= 0).all()
    for t in range(inst.transaction_count):
        assert part.replica[model.txn_reads[:, t], out[t]].all()
    assigned = Partitioning(txn_site=out, replica=part.replica)
    assert evaluate_folded(inst, model, assigned).score == evaluate(inst, model, assigned).score


def test_assign_transactions_returns_minus_one_when_stuck():
    inst = random_instance(0, site_count=2)
    model = derive(inst)
    # a replica matrix with an all-empty row can cover no reader of it
    replicas = np.zeros((inst.attribute_count, inst.site_count), dtype=bool)
    order = np.arange(inst.transaction_count)
    out = kernels.assign_transactions(
        replicas,
        model.txn_reads,
        model.coloc_cost,
        model.coloc_load,
        model.replica_load,
        inst.cost_weight,
        order,
    )
    if model.txn_reads.any():
        assert (out == -1).any()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("forbid", [False, True])
def test_enumerate_paths_agree_and_match_bruteforce_oracle(seed, forbid):
    for inst in (
        random_instance(seed, site_count=2),
        random_instance(seed, site_count=2, latency_penalty=5.0, update_percent=60.0),
    ):
        model = derive(inst)
        found, score, x, masks = _enumerate(inst, model, forbid)
        assert found
        part = _layout_from_masks(inst, x, masks)
        assert evaluate(inst, model, part).score == pytest.approx(score, abs=1e-9)
        # independent oracle search over the same space
        best_score, _, _ = oracle_best(inst, forbid_replication=forbid)
        assert score == pytest.approx(best_score, abs=1e-9)


def test_enumerate_reconstructed_layout_prices_to_reported_score():
    inst = random_instance(3, site_count=2)
    model = derive(inst)
    found, score, x, masks = _enumerate(inst, model, False)
    assert found
    part = _layout_from_masks(inst, x, masks)
    assert evaluate(inst, model, part).score == pytest.approx(score, abs=1e-9)
