"""Correctness of the hot loops: the greedy replica repair and the price
it reports, the exhaustive enumeration and the annealer's perturbation.

Each answer is checked on two paths: the package's definitional
pricing (:func:`evaluate`) of the layout a loop returns must agree with
the figure it reports, and the independent oracles from conftest must
agree with both where they are cheap enough to run.  The repair and the
perturbation must also return exactly what the per-element versions
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
    _column_sums,
    _RepairTables,
    _shifted_sums,
    perturb_transactions,
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
            model, txn_site, _RepairTables.build(model, inst.site_count, inst.cost_weight))
        # feasibility: coverage and per-reader co-location
        assert got.any(axis=1).all()
        for t in range(inst.transaction_count):
            readers = model.txn_reads[:, t]
            assert got[readers, txn_site[t]].all()
        full = evaluate(inst, model, Partitioning(txn_site=txn_site, replica=got))
        assert (objective, max_load) == (full.objective, full.max_load)


def _repair_prices(inst, seed):
    """The replica repair's reported (objective, max_load) beside
    evaluate's figures for the layout it returned, on a few random
    starting points."""
    model = derive(inst)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
        replicas, *price = solve_subproblem_fix_transactions(
            model, txn_site, _RepairTables.build(model, inst.site_count, inst.cost_weight))
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
    for seed in range(12):
        reads, coloc_cost, replica_cost, coloc_load, replica_load = _coefficients(
            kind, seed, n_sites, cost_weight
        )
        rng = np.random.default_rng(seed)
        txn_site = rng.integers(0, n_sites, coloc_cost.shape[1])
        model = _model(reads, coloc_cost, replica_cost, coloc_load, replica_load)
        args = (txn_site, reads, coloc_cost, replica_cost, coloc_load, replica_load,
                cost_weight, n_sites)
        want = _ref_greedy_replicas(*args)
        got, _, _ = solve_subproblem_fix_transactions(
            model, txn_site, _RepairTables.build(model, n_sites, cost_weight))
        assert np.array_equal(got, want)


def _peak_site_cheapest(n_sites):
    """A model on which the replica repair's first cheapest site for
    every item is the peak-load site and the item's load there lifts the
    peak, so the repair cannot take its fast path; with its transaction
    sites.

    Attributes 0 and 1 are read (by transaction 0, and by 1 and 2),
    attributes 2-4 by nobody.  Every transaction sits on site 0, and an
    unread attribute costs less beside transactions, so site 0 is the
    cheapest for each of them and already the peak.
    """
    reads = np.zeros((5, 3), bool)
    reads[0, 0] = reads[1, 1] = reads[1, 2] = True
    coloc_cost = np.where(reads.any(axis=1)[:, None], 2.0, -1.0) * np.ones((5, 3))
    model = _model(reads, coloc_cost, np.ones(5), np.ones((5, 3)), np.ones(5))
    return model, np.zeros(3, np.int64)


@pytest.mark.parametrize("cost_weight", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_sites", [2, 3])
def test_repairs_match_reference_when_every_item_is_scanned(n_sites, cost_weight):
    model, txn_site = _peak_site_cheapest(n_sites)
    reads, coloc_cost, replica_cost, coloc_load, replica_load = (
        model.txn_reads, model.coloc_cost, model.replica_cost, model.coloc_load,
        model.replica_load)
    want = _ref_greedy_replicas(txn_site, reads, coloc_cost, replica_cost, coloc_load,
                                replica_load, cost_weight, n_sites)
    got, _, max_load = solve_subproblem_fix_transactions(
        model, txn_site, _RepairTables.build(model, n_sites, cost_weight))
    assert np.array_equal(got, want)
    if cost_weight == 1.0:
        # no load term: each unread attribute stays on the cheapest site
        # and lifts the peak there, from 8 by 4 each
        assert want[2:, 0].all() and max_load == 8.0 + 3 * 4.0
    else:
        assert not want[2:, 0].all()  # the scan moved some off their cheapest site


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
            model, txn_site, _RepairTables.build(model, 1, cost_weight))
        assert np.array_equal(got, want) and want.all()


@pytest.mark.parametrize("cost_weight", [-0.1, 1.5, math.nan])
def test_repairs_reject_weights_outside_unit_interval(cost_weight):
    # the repair's tables check the weight once per run
    model, _ = _peak_site_cheapest(2)
    with pytest.raises(ValueError, match="cost_weight"):
        _RepairTables.build(model, 2, cost_weight)


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
        txn_site = setup.integers(0, n_sites, int(setup.integers(1, 12)))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = perturb_transactions(txn_site, n_sites, move_fraction, got_rng)
        want = _ref_perturb_transactions(txn_site, n_sites, move_fraction, want_rng)
        assert np.array_equal(got, want)
        assert got.dtype == txn_site.dtype
        assert got_rng.random() == want_rng.random()  # same generator state


# ---------------------------------------------------------------------------
# the annealer's column sums, shifted move by move


def _shifted_and_fresh(inst, seed, moves):
    """After each of ``moves`` random moves from a random assignment,
    the column sums shifted along the way and the ones built afresh."""
    model = derive(inst)
    tables = _RepairTables.build(model, inst.site_count, inst.cost_weight)
    rng = np.random.default_rng(seed)
    txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
    sums = _column_sums(txn_site, tables)
    for _ in range(moves):
        moved = perturb_transactions(txn_site, inst.site_count,
                                     float(rng.choice([0.1, 0.3, 1.0])), rng)
        sums = _shifted_sums(sums, txn_site, moved, tables)
        txn_site = moved
        yield sums, _column_sums(txn_site, tables)


_SHIFTS = settings(max_examples=60, deadline=None)


@_SHIFTS
@given(st.integers(0, 2**16), st.integers(1, 4), st.integers(1, 30))
def test_shifted_column_sums_equal_fresh_ones_on_integral_coefficients(seed, n_sites, moves):
    # integers sum exactly in any order, so the shift leaves no trace
    inst = random_instance(seed, site_count=n_sites)
    for shifted, fresh in _shifted_and_fresh(inst, seed, moves):
        assert shifted.tobytes() == fresh.tobytes()


@_SHIFTS
@given(st.integers(0, 2**16), st.sampled_from([3.3, 1e16]), st.integers(1, 30))
def test_shifted_column_sums_track_fresh_ones_on_fractional_coefficients(seed, penalty, moves):
    # the read counts are small integers and stay exact; the cost and
    # load sums may round differently, by a few ulps of the terms they
    # add up.  Relative to the sums themselves the error is unbounded:
    # at penalty 1e16 terms near 1e16 (ulp 2) cancel, and one move gave
    # -1.9 where the fresh sum is 0.0
    inst = fractional_instance(seed, penalty)
    model = derive(inst)
    terms = np.concatenate([model.coloc_cost, model.coloc_load])
    offsets = np.concatenate([model.replica_cost, model.replica_load])
    scale = (np.abs(terms).sum(axis=1) + np.abs(offsets))[:, None]
    counts = 2 * inst.attribute_count
    for shifted, fresh in _shifted_and_fresh(inst, seed, moves):
        assert np.array_equal(shifted[counts:], fresh[counts:])
        assert (np.abs(shifted[:counts] - fresh[:counts]) <= 1e-12 * scale).all()


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
        model, txn_site, _RepairTables.build(model, inst.site_count, inst.cost_weight))
    assert np.array_equal(got, _ref_greedy_replicas(*args))


@_PROPERTY
@given(_valid_instances(st.one_of(st.floats(0.0, 1e250), st.sampled_from([2.0**53, 1e16]))))
def test_replica_repair_adds_one_site_per_unread_attribute(case):
    # the forced replicas, and one site for each attribute that no
    # transaction reads: no more, at any penalty
    inst, txn_site = case
    model = derive(inst)
    got, _, _ = solve_subproblem_fix_transactions(
        model, txn_site, _RepairTables.build(model, inst.site_count, inst.cost_weight))
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
        model, txn_site, _RepairTables.build(model, inst.site_count, inst.cost_weight))
    assert got.tolist() == [[False, True]]
    alone, both = (evaluate(inst, model, Partitioning(txn_site, replica)).score
                   for replica in (got, np.ones_like(got)))
    assert alone == both
