"""Simulated annealing: temperature schedule, moves, subproblems, runs."""
from __future__ import annotations

import hashlib
import math

from dataclasses import replace

import numpy as np
import pytest

from vpadvisor import (
    Partitioning,
    SaConfig,
    accept_move,
    check_feasible,
    derive,
    evaluate,
    initial_temperature,
    perturb_replicas,
    perturb_transactions,
    solve_sa,
    solve_sa_best_of,
    solve_subproblem_fix_replicas,
    solve_subproblem_fix_transactions,
)

from conftest import random_instance, t1_instance


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


def test_perturb_replicas_only_adds_sites():
    rng = np.random.default_rng(3)
    y = np.zeros((8, 3), dtype=bool)
    y[np.arange(8), rng.integers(0, 3, 8)] = True
    grown = perturb_replicas(y, 0.25, rng)
    assert grown.shape == y.shape
    assert (grown | y == grown).all()  # supersets only
    assert grown.sum() == y.sum() + 2  # ceil(0.25 * 8) attrs gain one site


def test_perturb_replicas_skips_full_rows():
    rng = np.random.default_rng(4)
    y = np.ones((3, 2), dtype=bool)
    assert (perturb_replicas(y, 1.0, rng) == y).all()


# ---------------------------------------------------------------------------
# alternating subproblems


def test_fix_transactions_recovers_t1_optimum():
    inst = t1_instance()
    model = derive(inst)
    replicas = solve_subproblem_fix_transactions(
        model, np.array([0], dtype=np.int64), inst.site_count, inst.cost_weight
    )
    part = Partitioning(txn_site=np.array([0]), replica=replicas)
    assert check_feasible(inst, model, part) == []
    assert evaluate(inst, model, part).score == pytest.approx(80.0)


def test_fix_transactions_on_t2_keeps_single_cheap_replica(t2):
    model = derive(t2)
    replicas = solve_subproblem_fix_transactions(
        model, np.array([0], dtype=np.int64), t2.site_count, t2.cost_weight
    )
    # replicating the written attribute would raise the score by 3.6
    assert replicas.sum() == 1
    part = Partitioning(txn_site=np.array([0]), replica=replicas)
    assert evaluate(t2, model, part).score == pytest.approx(4.0)


def test_fix_replicas_places_reader_with_its_attribute():
    inst = t1_instance()
    model = derive(inst)
    replicas = np.array([[True, False], [False, True]])
    x = solve_subproblem_fix_replicas(model, replicas, inst.cost_weight)
    assert x[0] == 0  # only site holding a1 keeps the reader co-located


@pytest.mark.parametrize("seed", range(8))
def test_subproblem_outputs_always_feasible(seed):
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed)
    txn_site = rng.integers(0, inst.site_count, inst.transaction_count)
    replicas = solve_subproblem_fix_transactions(
        model, txn_site, inst.site_count, inst.cost_weight
    )
    part = Partitioning(txn_site=txn_site, replica=replicas)
    assert check_feasible(inst, model, part) == []
    x2 = solve_subproblem_fix_replicas(model, replicas, inst.cost_weight)
    part2 = Partitioning(txn_site=x2, replica=replicas)
    assert check_feasible(inst, model, part2) == []


# ---------------------------------------------------------------------------
# full runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


GOLDEN_SHAPE = dict(
    transaction_count=10, table_count=5, max_attributes_per_table=5, max_queries_per_transaction=3
)
GOLDEN_INSTANCES = {
    "plain": lambda: random_instance(11, site_count=3, **GOLDEN_SHAPE),
    "latency": lambda: random_instance(
        12, site_count=3, latency_penalty=5.0, update_percent=50.0, **GOLDEN_SHAPE
    ),
    "cost-only": lambda: random_instance(13, site_count=4, cost_weight=1.0, **GOLDEN_SHAPE),
}

# (instance, seed): (score as float.hex, evaluations, temperature steps,
# sha256 prefixes of txn_site, replica and the trace), recorded with the
# per-element kernels the scalar-loop kernels replaced.
GOLDEN = {
    ("plain", 0): ("0x1.07a6666666667p+11", 1250, 25, "f6b6883f18348ef2", "ec5e14c7556e15d1", "10bed764826e704d"),
    ("plain", 1): ("0x1.07a6666666667p+11", 1100, 22, "f6b6883f18348ef2", "ec5e14c7556e15d1", "c121453918470813"),
    ("plain", 2): ("0x1.07a6666666667p+11", 1250, 25, "c5014d13de5a5a77", "f729ea3380977c06", "e4e9259780393a88"),
    ("latency", 0): ("0x1.e666666666666p+9", 1450, 29, "bb0c54d5c60986dc", "5317bb742c9dc751", "e6a4ab5d8298d99e"),
    ("latency", 1): ("0x1.e666666666666p+9", 1150, 23, "f020a6e208dc2f77", "42d62fb5bcc7958a", "08471387aa3e756a"),
    ("latency", 2): ("0x1.e666666666666p+9", 1250, 25, "c3534e7adbc6814a", "5317bb742c9dc751", "84a17f39e1fc9013"),
    ("cost-only", 0): ("0x1.c300000000000p+11", 1250, 25, "da7d58182a6953de", "f5521ba3c5e9e4ae", "ca611ec80b349158"),
    ("cost-only", 1): ("0x1.c300000000000p+11", 1450, 29, "8128a9daefce07e6", "99036f39ded07f50", "e2aea110fbac7b83"),
    ("cost-only", 2): ("0x1.c300000000000p+11", 1800, 36, "84d9a97c9ba99318", "1cb59075440459c0", "b5f53b0e61858352"),
}


@pytest.mark.parametrize("name", list(GOLDEN_INSTANCES))
def test_solve_sa_follows_its_recorded_trajectory(name):
    # any change to the random stream, the tie-breaking or the rounding
    # of a score moves at least one of these figures
    inst = GOLDEN_INSTANCES[name]()
    for seed in range(3):
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


@pytest.mark.parametrize("seed", range(3))
def test_solve_sa_score_includes_write_latency(seed):
    # the greedy repairs ignore the latency charge; the Metropolis score
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
