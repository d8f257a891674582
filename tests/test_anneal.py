"""Simulated annealing: temperature schedule, moves, the replica repair, runs."""
from __future__ import annotations

import hashlib
import math

from dataclasses import replace

import numpy as np
import pytest

from vpadvisor import (
    GenParams,
    Partitioning,
    SaConfig,
    check_feasible,
    derive,
    evaluate,
    generate,
    solve_sa,
    solve_sa_best_of,
    tpcc,
)
import vpadvisor.anneal as anneal_module
from vpadvisor.anneal import (
    _RepairTables,
    accept_move,
    initial_temperature,
    perturb_transactions,
    solve_subproblem_fix_transactions,
)

from conftest import fractional_instance, random_instance, t1_instance


# ---------------------------------------------------------------------------
# temperature and acceptance


def test_initial_temperature_targets_half_acceptance():
    # a 5% worse candidate is accepted with probability 1/2 at tau0
    tau0 = initial_temperature(1000.0)
    delta = 0.05 * 1000.0
    assert math.exp(-delta / tau0) == pytest.approx(0.5, abs=1e-12)


def test_initial_temperature_scales_linearly_with_score():
    assert initial_temperature(2000.0) == pytest.approx(2 * initial_temperature(1000.0))


def test_initial_temperature_rejects_nonpositive_score():
    with pytest.raises(ValueError):
        initial_temperature(0.0)
    with pytest.raises(ValueError):
        initial_temperature(-5.0)


def test_accept_move_is_greedy_for_improvements():
    rng = np.random.default_rng(0)
    assert accept_move(-1.0, 1e-9, rng)
    assert accept_move(0.0, 1e-9, rng)
    assert not accept_move(1.0, 0.0, rng)


def test_accept_move_empirical_rate_tracks_boltzmann():
    rng = np.random.default_rng(42)
    tau = 10.0
    delta = 10.0 * math.log(2.0)  # exp(-delta/tau) = 1/2
    hits = sum(accept_move(delta, tau, rng) for _ in range(20000))
    assert hits / 20000 == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# perturbations


def test_perturb_transactions_moves_requested_fraction():
    rng = np.random.default_rng(1)
    x = np.zeros(10, dtype=np.int64)
    moved = perturb_transactions(x, 4, 0.3, rng)
    assert moved.shape == x.shape
    assert (x == 0).all()  # input untouched
    changed = int((moved != x).sum())
    assert changed == 3  # ceil(0.3 * 10); new site always differs from old
    assert ((moved >= 0) & (moved < 4)).all()


def test_perturb_transactions_single_site_is_identity():
    rng = np.random.default_rng(2)
    x = np.zeros(5, dtype=np.int64)
    assert (perturb_transactions(x, 1, 0.5, rng) == x).all()


# ---------------------------------------------------------------------------
# the replica repair


def test_fix_transactions_recovers_t1_optimum():
    inst = t1_instance()
    model = derive(inst)
    tables = _RepairTables.build(model, inst.site_count, inst.cost_weight)
    replicas, _, _ = solve_subproblem_fix_transactions(
        model, np.array([0], dtype=np.int64), tables)
    part = Partitioning(txn_site=np.array([0]), replica=replicas)
    assert check_feasible(inst, model, part) == []
    assert evaluate(inst, model, part).score == pytest.approx(80.0)


def test_fix_transactions_on_t2_keeps_single_cheap_replica(t2):
    model = derive(t2)
    tables = _RepairTables.build(model, t2.site_count, t2.cost_weight)
    replicas, _, _ = solve_subproblem_fix_transactions(
        model, np.array([0], dtype=np.int64), tables)
    # replicating the written attribute would raise the score by 3.6
    assert replicas.sum() == 1
    part = Partitioning(txn_site=np.array([0]), replica=replicas)
    assert evaluate(t2, model, part).score == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(8))
def test_subproblem_outputs_always_feasible(seed):
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed)
    txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
    tables = _RepairTables.build(model, inst.site_count, inst.cost_weight)
    replicas, _, _ = solve_subproblem_fix_transactions(model, txn_site, tables)
    part = Partitioning(txn_site=txn_site, replica=replicas)
    assert check_feasible(inst, model, part) == []


# ---------------------------------------------------------------------------
# full runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _benchmark_instance(update_percent, latency_penalty):
    params = GenParams(transaction_count=60, table_count=40, max_attributes_per_table=15,
                       update_percent=update_percent, seed=3)
    return generate(params, site_count=4, network_penalty=8.0, cost_weight=0.1,
                    latency_penalty=latency_penalty)


GOLDEN_SHAPE = dict(
    transaction_count=10, table_count=5, max_attributes_per_table=5, max_queries_per_transaction=3
)
GOLDEN_INSTANCES = {
    "plain": lambda: random_instance(11, site_count=3, **GOLDEN_SHAPE),
    "latency": lambda: random_instance(
        12, site_count=3, latency_penalty=5.0, update_percent=50.0, **GOLDEN_SHAPE
    ),
    "cost-only": lambda: random_instance(13, site_count=4, cost_weight=1.0, **GOLDEN_SHAPE),
    "tpcc-3": lambda: tpcc(site_count=3),
    # the benchmark's annealing instances (perfbench/workloads.py)
    "gen-sa-read": lambda: _benchmark_instance(update_percent=10.0, latency_penalty=None),
    "gen-sa-write": lambda: _benchmark_instance(update_percent=50.0, latency_penalty=100.0),
}

# (instance, seed): (score as float.hex, evaluations, temperature steps,
# sha256 prefixes of txn_site, replica and the trace), recorded when the
# annealer's state became the transaction assignment alone (every move
# re-homes transactions and rebuilds the replica sets with the replica
# repair).  The ten small-instance scores are the ones the alternating
# annealer before it reached; on the two benchmark instances the score
# fell from 24084.8 to 23967.6 and from 34423.6 to 33774.8.
GOLDEN = {
    ("plain", 0): ("0x1.07a6666666667p+11", 2200, 44, "9fcaea4c437954fd", "cc1c1283ed63006c", "58b0ec310f0f1724"),
    ("plain", 1): ("0x1.07a6666666667p+11", 1900, 38, "953b627e4b6a7af2", "1983b10c5320a908", "9093a660b1d43711"),
    ("plain", 2): ("0x1.07a6666666667p+11", 2050, 41, "9fcaea4c437954fd", "cc1c1283ed63006c", "ff4130aa74cd4ebd"),
    ("latency", 0): ("0x1.e666666666666p+9", 1050, 21, "51351a7072bf63a2", "a7f87d51ddf84d79", "d3a17f7d8ccbeaad"),
    ("latency", 1): ("0x1.e666666666666p+9", 1150, 23, "3369adb6e464a322", "4ab3f68ab3030772", "665395cfd1cad601"),
    ("latency", 2): ("0x1.e666666666666p+9", 1300, 26, "95be158f9d0f6fa1", "5317bb742c9dc751", "f806229e14929b73"),
    ("cost-only", 0): ("0x1.c300000000000p+11", 1700, 34, "3b599ecc45a1dc55", "e368ed237a24a6a6", "2523dc0de216237a"),
    ("cost-only", 1): ("0x1.c300000000000p+11", 1100, 22, "644c142f4af6f342", "6bae4e8897b2508b", "3f981ef557f25705"),
    ("cost-only", 2): ("0x1.c300000000000p+11", 1650, 33, "176d4ca881ce21d8", "8fc3c085dc29a55d", "587d9385e5172ce6"),
    ("tpcc-3", 0): ("0x1.dc93333333334p+12", 1050, 21, "47a515128cb78c70", "c3486a4bc4da77d8", "4243e14b3d82c32d"),
    ("gen-sa-read", 0): ("0x1.767e666666667p+14", 2550, 51, "0d1d7a1b8eb6b3e6", "508f5e28bba2d79b", "8d88f2218c774326"),
    ("gen-sa-write", 0): ("0x1.07dd99999999ap+15", 3750, 75, "0c9ed79fbe7d8fd2", "7d5fb44759b9cd25", "715f282494f2beba"),
}


@pytest.mark.parametrize("name", list(GOLDEN_INSTANCES))
def test_solve_sa_follows_its_recorded_trajectory(name):
    # any change to the random stream, the tie-breaking or the rounding
    # of a score moves at least one of these figures
    inst = GOLDEN_INSTANCES[name]()
    for seed in sorted(seed for key, seed in GOLDEN if key == name):
        report, trace = solve_sa(inst, SaConfig(seed=seed))
        part = report.partitioning
        steps = repr((
            tuple(float(v).hex() for v in trace.temperatures),
            tuple(float(v).hex() for v in trace.best_scores),
            tuple(float(v).hex() for v in trace.current_scores),
            tuple(int(v) for v in trace.accepted_moves),
        )).encode()
        got = (
            report.score.hex(),
            report.node_count,
            len(trace),
            _sha(part.txn_site.astype("<i8").tobytes()),
            _sha(part.replica.astype(np.uint8).tobytes()),
            _sha(steps),
        )
        assert got == GOLDEN[name, seed], (name, seed)


@pytest.mark.parametrize("name", list(GOLDEN_INSTANCES))
def test_solve_sa_returns_the_replica_repair_of_its_assignment(name):
    # the annealer's state is the assignment alone, so the replica sets
    # it returns are the repair's for the transaction sites it returns
    inst = GOLDEN_INSTANCES[name]()
    model = derive(inst)
    tables = _RepairTables.build(model, inst.site_count, inst.cost_weight)
    for seed in range(3):
        part = solve_sa(inst, SaConfig(seed=seed), model=model)[0].partitioning
        want, _, _ = solve_subproblem_fix_transactions(model, part.txn_site, tables)
        assert np.array_equal(part.replica, want), (name, seed)


@pytest.mark.parametrize("penalty", [3.3, 1e16])
def test_solve_sa_returns_the_fresh_repair_on_fractional_instances(penalty):
    # each move shifts the column sums, which on non-integral
    # coefficients can round otherwise than sums built afresh; the
    # returned replica sets are still the fresh repair of the returned
    # assignment
    for seed in range(8):
        inst = fractional_instance(seed, penalty)
        model = derive(inst)
        tables = _RepairTables.build(model, inst.site_count, inst.cost_weight)
        for sa_seed in range(3):
            part = solve_sa(inst, SaConfig(seed=sa_seed), model=model)[0].partitioning
            want, _, _ = solve_subproblem_fix_transactions(model, part.txn_site, tables)
            assert np.array_equal(part.replica, want), (seed, sa_seed)


def test_solve_sa_shifts_column_sums_instead_of_rebuilding_them(monkeypatch):
    # a move shifts the current column sums by the rows it re-homes: only
    # the first layout, each temperature step and the returned layout's
    # repair build them afresh
    fresh = anneal_module._column_sums
    calls = []

    def counted(*args):
        calls.append(1)
        return fresh(*args)

    monkeypatch.setattr(anneal_module, "_column_sums", counted)
    report, trace = solve_sa(GOLDEN_INSTANCES["gen-sa-read"](), SaConfig(seed=0))
    assert report.node_count == 2550
    assert len(calls) <= len(trace) + 2


@pytest.mark.parametrize("seed", range(3))
def test_solve_sa_score_includes_write_latency(seed):
    # the greedy repair ignores the latency charge; the Metropolis score
    # and the final re-pricing include it, so the reported score is the
    # full price of the returned layout
    inst = random_instance(
        seed, site_count=3, latency_penalty=50.0, update_percent=60.0, **GOLDEN_SHAPE
    )
    model = derive(inst)
    report, trace = solve_sa(inst, SaConfig(seed=seed))
    full = evaluate(inst, model, report.partitioning)
    assert report.score == full.score
    assert full.latency > 0.0
    assert trace.best_scores[-1] == report.score
    unpriced = replace(inst, latency_penalty=None)
    assert evaluate(unpriced, derive(unpriced), report.partitioning).score < report.score


def test_solve_sa_finds_t1_optimum():
    report, trace = solve_sa(t1_instance())
    assert report.score == pytest.approx(80.0)
    assert report.status == "feasible-time-limit"
    assert math.isinf(report.bound_gap)
    assert len(trace) >= 1


def test_solve_sa_is_deterministic_per_seed():
    inst = random_instance(5, site_count=3)
    r1, t1_trace = solve_sa(inst, SaConfig(seed=9))
    r2, t2_trace = solve_sa(inst, SaConfig(seed=9))
    assert r1.score == r2.score
    assert (r1.partitioning.txn_site == r2.partitioning.txn_site).all()
    assert (r1.partitioning.replica == r2.partitioning.replica).all()
    assert t1_trace.best_scores == t2_trace.best_scores
    r3, _ = solve_sa(inst, SaConfig(seed=10))
    # different seed: different stream (scores may coincide; the stream rarely does)
    assert (
        t1_trace.current_scores != solve_sa(inst, SaConfig(seed=10))[1].current_scores
        or r3.score == r1.score
    )


def test_trace_invariants():
    inst = random_instance(2, site_count=2)
    report, trace = solve_sa(inst, SaConfig(seed=1))
    temps = list(trace.temperatures)
    assert temps == sorted(temps, reverse=True)
    bests = list(trace.best_scores)
    assert bests == sorted(bests, reverse=True)  # best only improves
    assert report.score == pytest.approx(bests[-1])
    table = trace.as_table()
    assert len(table.splitlines()) >= len(trace) + 1


def test_solver_result_is_feasible_and_priced_consistently():
    inst = random_instance(6, site_count=3)
    model = derive(inst)
    report, _ = solve_sa(inst, SaConfig(seed=3))
    assert check_feasible(inst, model, report.partitioning) == []
    assert evaluate(inst, model, report.partitioning).score == pytest.approx(
        report.score
    )


def test_best_of_picks_minimum_and_sums_work():
    inst = random_instance(8, site_count=3)
    singles = [solve_sa(inst, SaConfig(seed=4 + i))[0] for i in range(4)]
    best, traces = solve_sa_best_of(inst, 4, SaConfig(seed=4))
    assert len(traces) == 4
    assert best.score == pytest.approx(min(r.score for r in singles))
    assert best.node_count == sum(r.node_count for r in singles)


def test_best_of_runs_share_one_deadline():
    inst = random_instance(8, site_count=3)
    # no time at all: the first run still returns its starting layout,
    # and the other runs are skipped
    best, traces = solve_sa_best_of(inst, 4, SaConfig(seed=4, time_limit=0.0))
    assert len(traces) == 1
    assert best.node_count == 0
    assert check_feasible(inst, derive(inst), best.partitioning) == []


def test_sa_config_validation():
    with pytest.raises(ValueError):
        SaConfig(time_limit=-1.0)
    with pytest.raises(ValueError):
        SaConfig(inner_loops=0)
    with pytest.raises(ValueError):
        SaConfig(freeze_stall_loops=0)
    with pytest.raises(ValueError):
        SaConfig(time_limit=math.nan)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SaConfig(seed=-1)
