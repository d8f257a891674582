"""Correctness of the hot loops: the greedy repairs and the price they
report, the exhaustive enumeration and the annealer's perturbations.

Each answer is checked on two paths: the package's definitional
pricing (:func:`evaluate`) of the layout a loop returns must agree with
the figure it reports, and the independent oracles from conftest must
agree with both where they are cheap enough to run.  The repairs and the
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
)
from vpadvisor.anneal import (
    _RepairTables,
    perturb_replicas,
    perturb_transactions,
    solve_subproblem_fix_replicas,
    solve_subproblem_fix_transactions,
)
from vpadvisor.partitioning import _write_latency, _write_pairs
from conftest import (
    folded_price, fractional_instance, oracle_best, oracle_cost, random_instance,
    random_partitioning,
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


def _tables(model, n_sites, cost_weight, order=None):
    """The repairs' per-run tables, placing transactions in ``order``
    when one is given."""
    tables = _RepairTables.build(model, n_sites, cost_weight)
    return tables if order is None else replace(tables, order=np.asarray(order).tolist())


def _stuck_messages(replicas, txn_reads):
    """The repair's error under ``replicas``: one line per transaction
    that no site can serve, a site lacking one of its reads."""
    missing = txn_reads.T.astype(np.int64) @ (~replicas).astype(np.int64)  # (T, S)
    return [f"transaction {t} reads attributes that no single site holds together"
            for t in np.flatnonzero((missing > 0).all(axis=1))]


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
        got, objective, max_load = solve_subproblem_fix_transactions(
            model, txn_site, _tables(model, inst.site_count, inst.cost_weight))
        # feasibility: coverage and per-reader co-location
        assert got.any(axis=1).all()
        for t in range(inst.transaction_count):
            readers = model.txn_reads[:, t]
            assert got[readers, txn_site[t]].all()
        full = evaluate(inst, model, Partitioning(txn_site=txn_site, replica=got))
        assert (objective, max_load) == (full.objective, full.max_load)


@pytest.mark.parametrize("seed", range(10))
def test_assign_transactions_paths_agree(seed):
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed + 7)
    part = random_partitioning(inst, rng)
    out, objective, max_load = solve_subproblem_fix_replicas(
        model, part.replica,
        _tables(model, inst.site_count, inst.cost_weight, np.arange(inst.transaction_count)),
    )
    # the layout random_partitioning built places every reader, so every
    # transaction fits somewhere, and each lands with all it reads
    assert (out >= 0).all()
    for t in range(inst.transaction_count):
        assert part.replica[model.txn_reads[:, t], out[t]].all()
    full = evaluate(inst, model, Partitioning(txn_site=out, replica=part.replica))
    assert (objective, max_load) == (full.objective, full.max_load)


def _repair_prices(inst, seed):
    """Each repair's reported (objective, max_load) beside evaluate's
    figures for the layout it returned, on a few random starting points."""
    model = derive(inst)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
        replicas, *price = solve_subproblem_fix_transactions(
            model, txn_site, _tables(model, inst.site_count, inst.cost_weight))
        full = evaluate(inst, model, Partitioning(txn_site, replicas))
        yield tuple(price), (full.objective, full.max_load)
        replicas = random_partitioning(inst, rng).replica
        order = rng.permutation(inst.transaction_count)
        txn_site, *price = solve_subproblem_fix_replicas(
            model, replicas, _tables(model, inst.site_count, inst.cost_weight, order))
        full = evaluate(inst, model, Partitioning(txn_site, replicas))
        yield tuple(price), (full.objective, full.max_load)


@pytest.mark.parametrize("latency", [None, 5.0])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_repairs_price_their_layouts_exactly(n_sites, latency):
    # integral coefficients: the order of the sums cannot change a bit
    for seed in range(6):
        inst = random_instance(seed, site_count=n_sites, latency_penalty=latency,
                               update_percent=50.0)
        for got, want in _repair_prices(inst, seed):
            assert got == want


@pytest.mark.parametrize("seed", range(8))
def test_repairs_price_fractional_layouts_to_rounding(seed):
    inst = fractional_instance(seed, network_penalty=3.3)
    for got, want in _repair_prices(inst, seed):
        assert got == pytest.approx(want, rel=1e-12)


def test_assign_transactions_raises_when_stuck():
    inst = random_instance(0, site_count=2)
    model = derive(inst)
    # a replica matrix with an all-empty row can cover no reader of it
    replicas = np.zeros((inst.attribute_count, inst.site_count), dtype=bool)
    order = np.arange(inst.transaction_count)
    assert model.txn_reads.any()
    with pytest.raises(InfeasibleLayoutError):
        solve_subproblem_fix_replicas(
            model, replicas, _tables(model, inst.site_count, inst.cost_weight, order))


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
# repairs replaced, kept here as references


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
    small integers, some of them negative, so equal scores across sites
    are common."""
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
    stuck = 0
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
        got, _, _ = solve_subproblem_fix_transactions(
            model, txn_site, _tables(model, n_sites, cost_weight))
        assert np.array_equal(got, want)

        order = rng.permutation(n_txns)
        sparse = rng.random((n_attrs, n_sites)) < 0.4
        for replicas in (want, sparse):
            args = (replicas, reads, coloc_cost, coloc_load, replica_load, cost_weight, order)
            want_x = _ref_assign_transactions(*args)
            if (want_x < 0).any():
                stuck += 1
                with pytest.raises(InfeasibleLayoutError) as err:
                    solve_subproblem_fix_replicas(
                        model, replicas, _tables(model, n_sites, cost_weight, order))
                assert err.value.violations == _stuck_messages(replicas, reads)
            else:
                got_x, _, _ = solve_subproblem_fix_replicas(
                    model, replicas, _tables(model, n_sites, cost_weight, order))
                assert np.array_equal(got_x, want_x)
    assert stuck > 0  # some sparse placement left a transaction with no site


def _peak_site_cheapest(n_sites):
    """A model on which each repair's first cheapest site for every item
    is the peak-load site and the item's load there lifts the peak, so
    neither repair can take its fast path; with its inputs.

    Attributes 0 and 1 are read (by transaction 0, and by 1 and 2),
    attributes 2-4 by nobody.  Every transaction sits on site 0, and an
    unread attribute costs less beside transactions, so site 0 is the
    cheapest for each of them and already the peak.  For the assignment
    the read attributes are everywhere and the unread ones only on
    site 0, which makes site 0 the cheapest and the peak again.
    """
    reads = np.zeros((5, 3), bool)
    reads[0, 0] = reads[1, 1] = reads[1, 2] = True
    coloc_cost = np.where(reads.any(axis=1)[:, None], 2.0, -1.0) * np.ones((5, 3))
    model = _model(reads, coloc_cost, np.ones(5), np.ones((5, 3)), np.ones(5))
    replicas = np.zeros((5, n_sites), bool)
    replicas[:2] = replicas[2:, 0] = True
    return model, np.zeros(3, np.int64), replicas


@pytest.mark.parametrize("cost_weight", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_repairs_match_reference_when_every_item_is_scanned(n_sites, cost_weight):
    model, txn_site, replicas = _peak_site_cheapest(n_sites)
    reads, coloc_cost, replica_cost, coloc_load, replica_load = (
        model.txn_reads, model.coloc_cost, model.replica_cost, model.coloc_load,
        model.replica_load)
    want = _ref_greedy_replicas(txn_site, reads, coloc_cost, replica_cost, coloc_load,
                                replica_load, cost_weight, n_sites)
    got, _, max_load = solve_subproblem_fix_transactions(
        model, txn_site, _tables(model, n_sites, cost_weight))
    assert np.array_equal(got, want)
    if cost_weight == 1.0:
        # no load term: each unread attribute stays on the cheapest site
        # and lifts the peak there, from 8 by 4 each
        assert want[2:, 0].all() and max_load == 8.0 + 3 * 4.0
    else:
        assert not want[2:, 0].all()  # the scan moved some off their cheapest site
    order = np.array([2, 0, 1])
    want_x = _ref_assign_transactions(replicas, reads, coloc_cost, coloc_load, replica_load,
                                      cost_weight, order)
    got_x, _, _ = solve_subproblem_fix_replicas(
        model, replicas, _tables(model, n_sites, cost_weight, order))
    assert np.array_equal(got_x, want_x)
    assert (want_x == 0).all() == (cost_weight == 1.0)


@pytest.mark.parametrize("cost_weight", [0.0, 0.1, 1.0])
def test_repairs_on_one_site_match_reference(cost_weight):
    for seed in range(6):
        reads, coloc_cost, replica_cost, coloc_load, replica_load = _coefficients(
            "ties", seed, 1, cost_weight)
        model = _model(reads, coloc_cost, replica_cost, coloc_load, replica_load)
        txn_site = np.zeros(coloc_cost.shape[1], np.int64)
        want = _ref_greedy_replicas(txn_site, reads, coloc_cost, replica_cost, coloc_load,
                                    replica_load, cost_weight, 1)
        got, _, _ = solve_subproblem_fix_transactions(
            model, txn_site, _tables(model, 1, cost_weight))
        assert np.array_equal(got, want) and want.all()
        order = np.arange(coloc_cost.shape[1])[::-1]
        got_x, _, _ = solve_subproblem_fix_replicas(
            model, got, _tables(model, 1, cost_weight, order))
        assert np.array_equal(got_x, txn_site)


@pytest.mark.parametrize("cost_weight", [-0.1, 1.5, math.nan])
def test_repairs_reject_weights_outside_unit_interval(cost_weight):
    # the repairs' tables check the weight once per run, for both repairs
    model, _, _ = _peak_site_cheapest(2)
    with pytest.raises(ValueError, match="cost_weight"):
        _RepairTables.build(model, 2, cost_weight)


def test_stuck_assignment_names_every_unplaced_transaction():
    # transaction 2 reads attribute 0, which site 1 holds; transactions
    # 0 and 1 read attribute 1, which no site holds.  The repair places
    # transaction 2 first, stops at transaction 0 and names both
    # transactions that no site can serve.
    reads = np.array([[False, False, True], [True, True, False]])
    model = _model(reads, np.zeros((2, 3)), np.zeros(2), np.ones((2, 3)), np.zeros(2))
    replicas = np.array([[False, True], [False, False]])
    order = np.array([2, 0, 1])
    want_x = _ref_assign_transactions(replicas, reads, model.coloc_cost, model.coloc_load,
                                      model.replica_load, 0.5, order)
    assert want_x.tolist() == [-1, -1, 1]
    with pytest.raises(InfeasibleLayoutError) as err:
        solve_subproblem_fix_replicas(model, replicas, _tables(model, 2, 0.5, order))
    assert err.value.violations == _stuck_messages(replicas, reads) == [
        "transaction 0 reads attributes that no single site holds together",
        "transaction 1 reads attributes that no single site holds together",
    ]


def test_stuck_assignment_names_only_transactions_that_no_site_serves():
    # transaction 0 reads attribute 1, which no site holds; transaction 1
    # reads attribute 0, which site 1 holds.  The repair stops at
    # transaction 0 and names it alone: transaction 1, due after it, has
    # a site.
    reads = np.array([[False, True], [True, False]])
    model = _model(reads, np.zeros((2, 2)), np.zeros(2), np.ones((2, 2)), np.zeros(2))
    replicas = np.array([[False, True], [False, False]])
    with pytest.raises(InfeasibleLayoutError) as err:
        solve_subproblem_fix_replicas(model, replicas, _tables(model, 2, 0.5, [0, 1]))
    assert err.value.violations == _stuck_messages(replicas, reads) == [
        "transaction 0 reads attributes that no single site holds together",
    ]


def _ref_write_latency(instance, model, txn_site, replica):
    """The latency charge as one dense (W, S) product."""
    if instance.latency_penalty is None:
        return None
    off = replica.sum(axis=1)[:, None] > replica  # (A, S): a replica on a site other than s
    hits = model.write_attr_access.T.astype(np.float64) @ off  # (W, S)
    remote = hits[np.arange(hits.shape[0]), txn_site[model.write_txn]] > 0.0
    return float(instance.latency_penalty) * float(model.write_frequencies[remote].sum())


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_write_latency_matches_dense_reference(n_sites):
    for seed in range(8):
        inst = random_instance(seed, site_count=n_sites, latency_penalty=5.0,
                               update_percent=60.0)
        model = derive(inst)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            part = random_partitioning(inst, rng)
            x, replica = part.txn_site, part.replica.copy()
            if model.write_txn.size:
                # an updated attribute held on every site, and one held
                # only on its writer's site
                w_all, w_home = rng.integers(0, model.write_txn.size, 2)
                replica[np.flatnonzero(model.write_attr_access[:, w_all])[0]] = True
                home = np.flatnonzero(model.write_attr_access[:, w_home])[-1]
                replica[home] = False
                replica[home, x[model.write_txn[w_home]]] = True
            want = _ref_write_latency(inst, model, x, replica)
            assert _write_latency(inst, model, x, replica, _write_pairs(model)) == want
    unpriced = replace(inst, latency_penalty=None)
    assert _write_latency(unpriced, model, x, replica, _write_pairs(model)) is None


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
# the replica repair on valid instances


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
    # replica's weighted base cost is nonnegative, as CostModel states
    # and the replica repair relies on.  Beyond about 2**52, 1 + penalty
    # rounds to the penalty and the bound can fail by an ulp (penalty
    # 6.7e15 gave -32768): rounding noise, as evaluate scores a layout
    # with such a replica and one without it alike
    # (test_replica_repair_adds_no_replica_at_huge_penalties).
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
    # rounding makes some base costs negative
    inst, txn_site = case
    model = derive(inst)
    args = (txn_site, model.txn_reads, model.coloc_cost, model.replica_cost,
            model.coloc_load, model.replica_load, inst.cost_weight, inst.site_count)
    got, _, _ = solve_subproblem_fix_transactions(
        model, txn_site, _tables(model, inst.site_count, inst.cost_weight))
    assert np.array_equal(got, _ref_greedy_replicas(*args))


@_PROPERTY
@given(_valid_instances(st.one_of(st.floats(0.0, 1e250), st.sampled_from([2.0**53, 1e16]))))
def test_replica_repair_adds_one_site_per_unread_attribute(case):
    # the forced replicas, and one site for each attribute that no
    # transaction reads: no more, at any penalty
    inst, txn_site = case
    model = derive(inst)
    got, _, _ = solve_subproblem_fix_transactions(
        model, txn_site, _tables(model, inst.site_count, inst.cost_weight))
    forced = np.zeros_like(got)
    for t, s in enumerate(txn_site):
        forced[model.txn_reads[:, t], s] = True
    unread = ~model.txn_reads.any(axis=1)
    assert not (forced & ~got).any()
    assert np.array_equal((got & ~forced).sum(axis=1), unread.astype(np.int64))


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


def test_replica_repair_adds_no_replica_at_huge_penalties():
    # at penalty 2**53 the first write's transfer saving is larger than
    # what the rounded replica cost charges for it, so the weighted base
    # cost of a replica on the writers' site is negative.  The repair
    # keeps the reader's forced replica alone, and evaluate prices the
    # layout with that extra replica exactly as it prices this one.
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
    got, _, _ = solve_subproblem_fix_transactions(
        model, txn_site, _tables(model, inst.site_count, inst.cost_weight))
    assert got.tolist() == [[False, True]]
    alone, both = (evaluate(inst, model, Partitioning(txn_site, replica)).score
                   for replica in (got, np.ones_like(got)))
    assert alone == both
