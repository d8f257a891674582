"""Correctness of the hot loops: the folded price, the greedy repairs,
the exhaustive enumeration and the annealer's perturbations.

Each answer is checked on two paths: the package's definitional
pricing (:func:`evaluate`) of the layout a loop returns must agree with
the figure it reports, and the independent oracle from conftest must
agree with both where it is cheap enough to run.  The repairs and the
perturbations must also return exactly what the per-element versions
they replaced return.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vpadvisor import (
    Attribute,
    CostModel,
    GenParams,
    InfeasibleLayoutError,
    Instance,
    Partitioning,
    Query,
    Table,
    Transaction,
    ValidationError,
    brute_force,
    derive,
    evaluate,
    generate,
    perturb_replicas,
    perturb_transactions,
    solve_subproblem_fix_replicas,
    solve_subproblem_fix_transactions,
)
from vpadvisor.partitioning import _folded_score

from conftest import (
    folded_price, oracle_best, oracle_cost, random_instance, random_partitioning,
)


def _model(txn_reads, coloc_cost, replica_cost, coloc_load, replica_load):
    """A cost model holding the given coefficients and no write query."""
    n_attrs = coloc_cost.shape[0]
    return CostModel(
        attr_access=np.zeros((n_attrs, 0), bool),
        txn_reads=txn_reads,
        coloc_cost=coloc_cost,
        replica_cost=replica_cost,
        coloc_load=coloc_load,
        replica_load=replica_load,
        coloc_transfer=np.zeros_like(coloc_cost),
        write_queries=np.zeros(0, np.int64),
        write_attr_access=np.zeros((n_attrs, 0), bool),
        write_txn=np.zeros(0, np.int64),
        write_frequencies=np.zeros(0),
    )


def _stuck_messages(x):
    """The repair's error for a reference assignment with unplaced (-1)
    transactions."""
    return [f"transaction {t} reads attributes that no single site holds together"
            for t in np.flatnonzero(x < 0)]


@pytest.mark.parametrize("seed", range(10))
def test_folded_cost_paths_agree_and_match_oracle(seed):
    inst = random_instance(seed, site_count=2 + seed % 2)
    model = derive(inst)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        part = random_partitioning(inst, rng)
        objective, score = folded_price(inst, model, part)
        full = evaluate(inst, model, part)
        assert objective == full.objective
        assert score == full.score
        want = oracle_cost(inst, part)
        assert objective == pytest.approx(want["objective"], abs=1e-9)
        assert score == pytest.approx(want["score"], abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_greedy_replicas_paths_agree_and_are_feasible(seed):
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed + 99)
    for _ in range(4):
        txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
        got = solve_subproblem_fix_transactions(model, txn_site, inst.site_count, inst.cost_weight)
        # feasibility: coverage and per-reader co-location
        assert got.any(axis=1).all()
        for t in range(inst.transaction_count):
            readers = model.txn_reads[:, t]
            assert got[readers, txn_site[t]].all()
        part = Partitioning(txn_site=txn_site, replica=got)
        assert _folded_score(inst, model, txn_site, got) == evaluate(inst, model, part).score


@pytest.mark.parametrize("seed", range(10))
def test_assign_transactions_paths_agree(seed):
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed + 7)
    part = random_partitioning(inst, rng)
    out = solve_subproblem_fix_replicas(
        model, part.replica, inst.cost_weight, np.arange(inst.transaction_count)
    )
    # the layout random_partitioning built places every reader, so every
    # transaction fits somewhere, and each lands with all it reads
    assert (out >= 0).all()
    for t in range(inst.transaction_count):
        assert part.replica[model.txn_reads[:, t], out[t]].all()
    assigned = Partitioning(txn_site=out, replica=part.replica)
    assert _folded_score(inst, model, out, part.replica) == evaluate(inst, model, assigned).score


def test_assign_transactions_raises_when_stuck():
    inst = random_instance(0, site_count=2)
    model = derive(inst)
    # a replica matrix with an all-empty row can cover no reader of it
    replicas = np.zeros((inst.attribute_count, inst.site_count), dtype=bool)
    order = np.arange(inst.transaction_count)
    assert model.txn_reads.any()
    with pytest.raises(InfeasibleLayoutError):
        solve_subproblem_fix_replicas(model, replicas, inst.cost_weight, order)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("forbid", [False, True])
def test_enumerate_paths_agree_and_match_bruteforce_oracle(seed, forbid):
    for inst in (
        random_instance(seed, site_count=2),
        random_instance(seed, site_count=2, latency_penalty=5.0, update_percent=60.0),
    ):
        result = brute_force(inst, forbid_replication=forbid)
        # independent oracle search over the same space
        best_score, _, _ = oracle_best(inst, forbid_replication=forbid)
        assert result.score == pytest.approx(best_score, abs=1e-9)


# ---------------------------------------------------------------------------
# differential checks against the per-element versions the scalar-loop
# repairs replaced, kept here verbatim as references


def _ref_greedy_replicas(txn_site, txn_reads, coloc_cost, replica_cost,
                         coloc_load, replica_load, cost_weight, n_sites):
    n_attrs, n_txns = coloc_cost.shape
    lam = cost_weight
    onehot = np.zeros((n_txns, n_sites), np.float64)
    if n_txns:
        onehot[np.arange(n_txns), txn_site] = 1.0
    csum = coloc_cost @ onehot
    lsum = coloc_load @ onehot
    replicas = (txn_reads.astype(np.int64) @ onehot.astype(np.int64)) > 0
    inc_all = lsum + replica_load[:, None]
    loads = np.where(replicas, inc_all, 0.0).sum(axis=0)
    m = float(loads.max())
    base_all = csum + replica_cost[:, None]
    cand = np.argwhere(~replicas & (lam * base_all < 0.0))
    cand_list = [(int(a), int(s), base_all[a, s], inc_all[a, s]) for a, s in cand]
    alive = [True] * len(cand_list)
    remaining = len(cand_list)
    while remaining > 0:
        best = -1
        best_delta = 0.0
        for i, ok in enumerate(alive):
            if ok:
                _, s, base, inc = cand_list[i]
                grow = max(loads[s] + inc - m, 0.0)
                delta = lam * base + (1.0 - lam) * grow
                if best < 0 or delta < best_delta:
                    best = i
                    best_delta = delta
        if best < 0 or not (best_delta < 0.0):
            break
        a, s, _, inc = cand_list[best]
        replicas[a, s] = True
        loads[s] += inc
        m = max(m, float(loads[s]))
        alive[best] = False
        remaining -= 1
    for a in np.flatnonzero(~replicas.any(axis=1)):
        grow = np.maximum(loads + inc_all[a] - m, 0.0)
        delta = lam * base_all[a] + (1.0 - lam) * grow
        s = int(np.argmin(delta))
        replicas[a, s] = True
        loads[s] += inc_all[a, s]
        m = max(m, float(loads[s]))
    return replicas


def _ref_assign_transactions(replicas, txn_reads, coloc_cost, coloc_load,
                             replica_load, cost_weight, order):
    n_attrs, n_txns = coloc_cost.shape
    lam = cost_weight
    rep_f = replicas.astype(np.float64)
    x = np.full(n_txns, -1, np.int64)
    loads = rep_f.T @ replica_load
    cval_all = coloc_cost.T @ rep_f
    inc_all = coloc_load.T @ rep_f
    missing = txn_reads.astype(np.int64).T @ (~replicas).astype(np.int64)
    for t in order:
        feasible = missing[t] == 0
        if not feasible.any():
            return x
        m = loads.max()
        grow = np.maximum(loads + inc_all[t] - m, 0.0)
        cost = lam * cval_all[t] + (1.0 - lam) * grow
        cost = np.where(feasible, cost, np.inf)
        s = int(np.argmin(cost))
        x[t] = s
        loads[s] += inc_all[t, s]
    return x


def _ref_perturb_transactions(txn_site, site_count, move_fraction, rng):
    n_txns = txn_site.shape[0]
    moved = txn_site.copy()
    count = min(n_txns, math.ceil(move_fraction * n_txns))
    chosen = rng.choice(n_txns, size=count, replace=False)
    if site_count <= 1:
        return moved
    for t in chosen:
        draw = int(rng.integers(0, site_count - 1))
        moved[t] = draw if draw < moved[t] else draw + 1
    return moved


def _ref_perturb_replicas(replicas, move_fraction, rng):
    n_attrs, n_sites = replicas.shape
    grown = replicas.copy()
    count = min(n_attrs, math.ceil(move_fraction * n_attrs))
    chosen = rng.choice(n_attrs, size=count, replace=False)
    for a in chosen:
        missing = np.flatnonzero(~grown[a])
        if missing.size == 0:
            continue
        grown[a, int(rng.integers(0, missing.size))] = True
    return grown


def _coefficients(kind, seed, n_sites, cost_weight):
    """``(txn_reads, coloc_cost, replica_cost, coloc_load, replica_load)``.

    ``instance`` derives them from a generated instance; ``ties`` draws
    small integers, so equal scores across sites are common, and lets
    weighted base costs go negative, so the extras step runs."""
    if kind == "instance":
        model = derive(random_instance(seed, site_count=n_sites, cost_weight=cost_weight))
        return (model.txn_reads, model.coloc_cost, model.replica_cost,
                model.coloc_load, model.replica_load)
    rng = np.random.default_rng(seed)
    n_attrs, n_txns = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    return (
        rng.random((n_attrs, n_txns)) < 0.3,
        rng.integers(-3, 4, (n_attrs, n_txns)).astype(np.float64),
        rng.integers(-1, 5, n_attrs).astype(np.float64),
        rng.integers(0, 3, (n_attrs, n_txns)).astype(np.float64),
        rng.integers(0, 3, n_attrs).astype(np.float64),
    )


@pytest.mark.parametrize("kind", ["instance", "ties"])
@pytest.mark.parametrize("cost_weight", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_repair_kernels_match_reference(kind, cost_weight, n_sites):
    extras = stuck = 0
    for seed in range(12):
        reads, coloc_cost, replica_cost, coloc_load, replica_load = _coefficients(
            kind, seed, n_sites, cost_weight
        )
        n_attrs, n_txns = coloc_cost.shape
        rng = np.random.default_rng(seed)
        txn_site = rng.integers(0, n_sites, n_txns)
        model = _model(reads, coloc_cost, replica_cost, coloc_load, replica_load)
        args = (txn_site, reads, coloc_cost, replica_cost, coloc_load, replica_load,
                cost_weight, n_sites)
        want = _ref_greedy_replicas(*args)
        got = solve_subproblem_fix_transactions(model, txn_site, n_sites, cost_weight)
        assert np.array_equal(got, want)
        forced = np.zeros((n_attrs, n_sites), bool)
        forced[:, txn_site] |= reads
        extras += int((want & ~forced).sum() > (~forced.any(axis=1)).sum())

        order = rng.permutation(n_txns)
        sparse = rng.random((n_attrs, n_sites)) < 0.4
        for replicas in (want, sparse):
            args = (replicas, reads, coloc_cost, coloc_load, replica_load, cost_weight, order)
            want_x = _ref_assign_transactions(*args)
            if (want_x < 0).any():
                stuck += 1
                with pytest.raises(InfeasibleLayoutError) as err:
                    solve_subproblem_fix_replicas(model, replicas, cost_weight, order)
                assert err.value.violations == _stuck_messages(want_x)
            else:
                got_x = solve_subproblem_fix_replicas(model, replicas, cost_weight, order)
                assert np.array_equal(got_x, want_x)
    assert stuck > 0  # some sparse placement left a transaction with no site
    if kind == "ties" and cost_weight > 0.0 and n_sites > 1:
        assert extras > 0  # the extras step added replicas in some draw


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("move_fraction", [0.1, 0.3, 1.0])
def test_perturbations_match_reference_values_and_stream(n_sites, move_fraction):
    for seed in range(10):
        setup = np.random.default_rng(1000 + seed)
        n = int(setup.integers(1, 12))
        txn_site = setup.integers(0, n_sites, n)
        replicas = setup.random((n, n_sites)) < 0.5
        replicas[setup.random(n) < 0.2] = True  # some full rows
        for ours, ref, args in (
            (perturb_transactions, _ref_perturb_transactions, (txn_site, n_sites)),
            (perturb_replicas, _ref_perturb_replicas, (replicas,)),
        ):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = ours(*args, move_fraction, got_rng)
            assert np.array_equal(got, ref(*args, move_fraction, want_rng))
            assert got.dtype == args[0].dtype
            assert got_rng.random() == want_rng.random()  # same generator state


# ---------------------------------------------------------------------------
# the extras step of greedy_replicas on valid instances


@st.composite
def _valid_instances(draw, penalties, frequencies=st.floats(0.0, 1e12)):
    """Small generated instances with drawn frequencies, row counts,
    network penalty and cost weight."""
    params = GenParams(
        transaction_count=draw(st.integers(1, 5)),
        table_count=draw(st.integers(1, 4)),
        max_queries_per_transaction=draw(st.integers(1, 3)),
        update_percent=draw(st.floats(0.0, 100.0)),
        max_attributes_per_table=draw(st.integers(1, 4)),
        max_table_refs_per_query=2,
        max_attribute_refs_per_query=4,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    inst = generate(
        params,
        site_count=draw(st.integers(1, 4)),
        network_penalty=draw(penalties),
        cost_weight=draw(st.floats(0.0, 1.0)),
    )
    queries = tuple(
        replace(q, frequency=draw(frequencies),
                rows_per_table={k: draw(st.floats(1e-6, 1e6)) for k in q.rows_per_table})
        for q in inst.queries
    )
    inst = replace(inst, queries=queries)
    txn_site = np.array(draw(st.lists(st.integers(0, inst.site_count - 1),
                                      min_size=inst.transaction_count,
                                      max_size=inst.transaction_count)), np.int64)
    return inst, txn_site


_PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(_valid_instances(st.floats(0.0, 1e12)))
def test_replica_cost_bounds_write_savings(case):
    # coloc_cost saves at most the transfer replica_cost charges, so a
    # replica's weighted base cost is nonnegative and greedy_replicas
    # finds no extras.  Beyond about 2**52, 1 + penalty rounds to the
    # penalty and the bound can fail by an ulp (penalty 6.7e15 gave
    # -32768), which is why the extras step stays.
    inst, txn_site = case
    model = derive(inst)
    assert (model.replica_cost + np.minimum(model.coloc_cost, 0.0).sum(axis=1) >= 0.0).all()
    onehot = np.zeros((inst.transaction_count, inst.site_count))
    onehot[np.arange(inst.transaction_count), txn_site] = 1.0
    base = model.coloc_cost @ onehot + model.replica_cost[:, None]
    assert not (inst.cost_weight * base < 0.0).any()


@_PROPERTY
@given(_valid_instances(st.one_of(
    st.floats(0.0, 1e250), st.sampled_from([2.0**53, 1e16, 1e17, 1e20, 1e100]))))
def test_greedy_replicas_matches_reference_at_any_penalty(case):
    # penalties up to where the coefficients stay finite, and ones where
    # rounding gives the extras step candidates
    inst, txn_site = case
    model = derive(inst)
    args = (txn_site, model.txn_reads, model.coloc_cost, model.replica_cost,
            model.coloc_load, model.replica_load, inst.cost_weight, inst.site_count)
    got = solve_subproblem_fix_transactions(model, txn_site, inst.site_count, inst.cost_weight)
    assert np.array_equal(got, _ref_greedy_replicas(*args))


@_PROPERTY
@given(_valid_instances(st.floats(0.0, 1.7e308), st.floats(0.0, 1.7e308)),
       st.none() | st.floats(0.0, 1.7e308))
def test_derive_rejects_what_would_price_past_the_float_range(case, latency):
    # every valid instance either fails in derive or prices, without a
    # float error, its single-site layout to a finite score, and so its
    # fully replicated one, which pays every transfer and latency charge
    inst, txn_site = case
    inst = replace(inst, latency_penalty=latency)
    try:
        model = derive(inst)
    except ValidationError:
        return
    single = np.zeros((inst.attribute_count, inst.site_count), dtype=bool)
    single[:, 0] = True
    layouts = [(np.zeros_like(txn_site), single), (txn_site, np.ones_like(single))]
    with np.errstate(over="raise", invalid="raise"):
        for x, replica in layouts:
            assert math.isfinite(evaluate(inst, model, Partitioning(x, replica)).score)


def test_greedy_replicas_extras_step_runs_at_huge_penalties():
    # at penalty 2**53 the first write's transfer saving is larger than
    # what the rounded replica cost charges for it, so the weighted base
    # cost of a replica on the writers' site is negative: the extras step
    # adds it next to the reader's forced replica
    inst = Instance(
        tables=(Table(0, "T", (0,)),),
        attributes=(Attribute(0, 0, "a", 8),),
        queries=(
            Query(0, "w1", "write", 1.0, (0,), {0: 4.0}),
            Query(1, "w2", "write", 1.0, (0,), {0: 5.0}),
            Query(2, "w3", "write", 125016645212.0, (0,), {0: 288193.0}),
            Query(3, "r", "read", 0.0, (0,), {0: 1.0}),
        ),
        transactions=(
            Transaction(0, "t0", (0,)),
            Transaction(1, "t1", (1, 2)),
            Transaction(2, "reader", (3,)),
        ),
        site_count=2,
        network_penalty=2.0**53,
        cost_weight=1.0,
    )
    model = derive(inst)
    assert model.replica_cost[0] + np.minimum(model.coloc_cost[0], 0.0).sum() < 0.0
    txn_site = np.array([0, 0, 1])
    args = (txn_site, model.txn_reads, model.coloc_cost, model.replica_cost,
            model.coloc_load, model.replica_load, inst.cost_weight, inst.site_count)
    got = solve_subproblem_fix_transactions(model, txn_site, inst.site_count, inst.cost_weight)
    assert got.tolist() == [[True, True]]
    assert np.array_equal(got, _ref_greedy_replicas(*args))
