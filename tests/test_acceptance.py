"""Acceptance suite: ten checks, one test per promise.

Each test prints a single summary line on success so a plain
``pytest -v`` run doubles as the acceptance report.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from vpadvisor import (
    ExactConfig,
    GenParams,
    Partitioning,
    SaConfig,
    brute_force,
    build_mip,
    check_feasible,
    derive,
    enumeration_size,
    evaluate,
    generate,
    save_instance,
    solve_exact,
    solve_sa,
    solve_sa_best_of,
    tpcc,
)
from vpadvisor.anneal import accept_move, initial_temperature
from vpadvisor.cli import main as cli_main
from vpadvisor.report import STATUS_OPTIMAL
from vpadvisor.workload import _reader_classes

from conftest import (
    check_point,
    folded_price,
    lifted_point,
    random_partitioning,
    set_load_and_latency,
)


def _tiny_instance(seed: int, *, three_sites: bool = False, **config):
    """Instances small enough to enumerate: |T| <= 4, |A| <= 8, |S| <= 3.

    Three-site instances carry fewer attributes so that the replica
    space (2^S - 1)^A stays comfortably below the enumeration budget.
    """
    params = GenParams(
        transaction_count=2 + seed % 3,
        table_count=2,
        max_queries_per_transaction=2,
        update_percent=30.0,
        max_attributes_per_table=2 if three_sites else 4,
        max_table_refs_per_query=2,
        max_attribute_refs_per_query=4,
        seed=seed,
    )
    return generate(params, site_count=3 if three_sites else 2, **config)


# ---------------------------------------------------------------------------
# 1. exact solver vs exhaustive enumeration


def test_criterion_1_exact_equals_bruteforce_on_50_instances():
    started = time.perf_counter()
    checked = 0
    for seed in range(50):
        inst = _tiny_instance(seed, three_sites=bool(seed % 2))
        exact = solve_exact(inst, ExactConfig(gap=0.0))
        brute = brute_force(inst)
        assert exact.status == STATUS_OPTIMAL, f"seed {seed}: {exact.status}"
        assert exact.score == brute.score, (
            f"seed {seed}: exact {exact.score!r} != brute {brute.score!r}"
        )
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"suite took {elapsed:.1f} s"
    print(f"\n[criterion 1] exact == brute-force on {checked}/50 instances "
          f"in {elapsed:.1f} s: PASS")


# ---------------------------------------------------------------------------
# 2. full evaluator vs folded coefficient form


def test_criterion_2_dual_cost_forms_agree_on_200_layouts():
    layouts = 0
    for seed in range(20):
        inst = _tiny_instance(seed, three_sites=bool(seed % 2))
        model = derive(inst)
        rng = np.random.default_rng(seed + 500)
        for _ in range(10):
            part = random_partitioning(inst, rng)
            full = evaluate(inst, model, part)
            objective, score = folded_price(inst, model, part)
            # all inputs are integral: the two routes must agree exactly
            assert objective == full.objective, (
                f"seed {seed}: folded {objective!r} != full {full.objective!r}"
            )
            assert score == full.score
            layouts += 1
    assert layouts == 200
    print(f"\n[criterion 2] folded == full pricing on {layouts} layouts: PASS")


# ---------------------------------------------------------------------------
# 3. lifted layouts inside the linearized model


def test_criterion_3_lifted_points_satisfy_model_and_reproduce_score():
    points = 0
    for seed in range(10):
        latency = 5.0 if seed >= 8 else None
        inst = _tiny_instance(seed, latency_penalty=latency)
        model = derive(inst)
        mip = build_mip(inst)
        rng = np.random.default_rng(seed + 900)
        for _ in range(10):
            part = random_partitioning(inst, rng)
            values = lifted_point(mip, part.txn_site, part.replica)
            breakdown = evaluate(inst, model, part)
            values = set_load_and_latency(mip, inst, values, breakdown)
            bad = check_point(mip, values)
            assert bad == [], f"seed {seed}: violated {bad[:3]}"
            linear = mip.c @ values
            assert linear == pytest.approx(breakdown.score, rel=1e-9, abs=1e-9)
            points += 1
    assert points == 100
    print(f"\n[criterion 3] {points} lifted layouts feasible and "
          f"score-consistent: PASS")


# ---------------------------------------------------------------------------
# 4 + 5. TPC-C: exact reductions and annealing quality


@pytest.fixture(scope="module")
def tpcc_exact_by_sites():
    results = {}
    for sites in (1, 2, 3):
        inst = tpcc(site_count=sites)
        report = solve_exact(inst, ExactConfig())
        assert report.status == STATUS_OPTIMAL
        results[sites] = report
    return results


def test_criterion_4_tpcc_reduction(tpcc_exact_by_sites):
    r = tpcc_exact_by_sites
    for sites, report in r.items():
        assert report.wall_time < 120.0, f"|S|={sites} took {report.wall_time:.1f} s"
    base = r[1].score
    red2 = 1.0 - r[2].score / base
    red3 = 1.0 - r[3].score / base
    assert red2 >= 0.30, f"two-site reduction only {red2:.1%}"
    assert red3 >= red2 - 1e-9, f"three-site {red3:.1%} < two-site {red2:.1%}"
    print(f"\n[criterion 4] TPC-C reductions: |S|=2 {red2:.1%}, |S|=3 {red3:.1%} "
          f"(walls {r[1].wall_time:.1f}/{r[2].wall_time:.1f}/{r[3].wall_time:.1f} s): PASS")


def test_criterion_5_tpcc_annealing_within_5_percent(tpcc_exact_by_sites):
    gaps = {}
    for sites in (2, 3):
        inst = tpcc(site_count=sites)
        started = time.perf_counter()
        report, _ = solve_sa_best_of(inst, 5, SaConfig(seed=0))
        wall = time.perf_counter() - started
        assert wall < 30.0, f"|S|={sites} annealing took {wall:.1f} s"
        optimum = tpcc_exact_by_sites[sites].score
        gaps[sites] = report.score / optimum - 1.0
        assert gaps[sites] <= 0.05, f"|S|={sites}: {gaps[sites]:.2%} above optimal"
        assert gaps[sites] >= -1e-9  # never better than a proven optimum
    print(f"\n[criterion 5] annealing gap to optimum: |S|=2 {gaps[2]:.2%}, "
          f"|S|=3 {gaps[3]:.2%}: PASS")


# ---------------------------------------------------------------------------
# 6. replication strictly generalizes disjoint placement


def test_criterion_6_replication_benefit(tmp_path, capsys):
    path = tmp_path / "tpcc.json"
    save_instance(tpcc(site_count=2), str(path))
    assert cli_main(
        ["compare", str(path), "--mode", "replication", "--format", "structured"]
    ) == 0
    import json

    record = json.loads(capsys.readouterr().out)
    ratio = record["score_ratio"]
    assert ratio < 0.8, f"TPC-C replication ratio {ratio:.3f}"
    # universality on a small corpus, both sides solved to proven optimality
    for seed in range(8):
        inst = _tiny_instance(seed, three_sites=bool(seed % 2))
        free = solve_exact(inst, ExactConfig(gap=0.0))
        disjoint = solve_exact(inst, ExactConfig(gap=0.0, forbid_replication=True))
        assert free.score <= disjoint.score + 1e-9, f"seed {seed}"
    print(f"\n[criterion 6] TPC-C replicated/disjoint ratio {ratio:.3f} < 0.8; "
          f"replication never hurts on 8/8 instances: PASS")


# ---------------------------------------------------------------------------
# 7. local placement never costs more than remote


def test_criterion_7_local_vs_remote():
    checked = 0
    for lam in (0.0, 0.1):
        for seed in range(10):
            inst = replace(_tiny_instance(seed), cost_weight=lam)
            local = solve_exact(
                replace(inst, network_penalty=0.0), ExactConfig(gap=0.0)
            )
            remote = solve_exact(
                replace(inst, network_penalty=8.0), ExactConfig(gap=0.0)
            )
            assert local.score <= remote.score + 1e-9, (
                f"lambda={lam} seed {seed}: local {local.score} > remote {remote.score}"
            )
            checked += 1
    print(f"\n[criterion 7] optimal cost at p=0 <= p=8 on {checked}/20 "
          f"instance-lambda pairs: PASS")


# ---------------------------------------------------------------------------
# 8. merging attributes with equal reader sets preserves the exact optimum


def _full_program_optimum(inst, model, pins=()):
    """evaluate's price of the layout of scipy's ``milp`` optimum of the
    unmerged full program of ``build_mip``, with ``pins`` as lower bounds
    on its ``y`` columns."""
    mip = build_mip(inst)
    lower = np.zeros(mip.variable_count)
    lower[[mip.y_index(a, s) for a, s in pins]] = 1.0
    res = milp(mip.c, integrality=mip.integrality, bounds=Bounds(lower, mip.upper),
               constraints=LinearConstraint(mip.matrix, mip.row_lower, mip.row_upper),
               options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    sites = range(inst.site_count)
    txn_site = [np.argmax([res.x[mip.x_index(t, s)] for s in sites])
                for t in range(inst.transaction_count)]
    replica = [[res.x[mip.y_index(a, s)] > 0.5 for s in sites]
               for a in range(inst.attribute_count)]
    return evaluate(inst, model, Partitioning(txn_site, replica)).score


def test_criterion_8_grouping_preserves_exact_optimum():
    # solve_exact solves the merged model of _reader_classes; milp solves
    # the unmerged full program.  A pinned attribute that shares its
    # reader set with another stays apart from it: pinned on every site,
    # its replicas would otherwise all be the other attribute's too.
    merging = pinned = 0
    for seed in range(25):
        for lam in (0.0, 0.1, 1.0):
            inst = replace(_tiny_instance(seed), cost_weight=lam)
            model = derive(inst)
            merged, classes = _reader_classes(model)
            merging += merged.replica_cost.size < inst.attribute_count
            exact = solve_exact(inst, ExactConfig(gap=0.0))
            reference = _full_program_optimum(inst, model)
            assert exact.status == STATUS_OPTIMAL
            assert exact.score == reference, (
                f"seed {seed}, lambda {lam}: merged {exact.score!r} != full {reference!r} "
                f"({inst.attribute_count} -> {merged.replica_cost.size} attributes)"
            )
            shared = np.flatnonzero(np.bincount(classes)[classes] > 1)
            if shared.size:
                pins = tuple((int(shared[0]), site) for site in range(inst.site_count))
                exact = solve_exact(inst, ExactConfig(gap=0.0, fixed_replicas=pins))
                reference = _full_program_optimum(inst, model, pins)
                assert exact.score == reference, (
                    f"seed {seed}, lambda {lam}, pins {pins}: merged {exact.score!r} "
                    f"!= full {reference!r}")
                pinned += 1
    assert merging >= 25 and pinned >= 25
    print(f"\n[criterion 8] merged == full exact optimum on 75/75 instance-lambda "
          f"pairs ({merging} with merged attributes) and {pinned} pinned cases: PASS")


# ---------------------------------------------------------------------------
# 9. initial temperature hits the intended acceptance rate


def test_criterion_9_initial_temperature_acceptance_rate():
    rng = np.random.default_rng(2024)
    rates = []
    for score in (240.0, 19548.0):
        tau0 = initial_temperature(score)
        delta = 0.05 * score
        trials = 10_000
        hits = sum(accept_move(delta, tau0, rng) for _ in range(trials))
        rate = hits / trials
        rates.append(rate)
        assert abs(rate - 0.5) <= 0.05, f"score {score}: rate {rate:.3f}"
    print(f"\n[criterion 9] 5%-worse acceptance at initial temperature: "
          f"{', '.join(f'{r:.3f}' for r in rates)} (target 0.5 +- 0.05): PASS")


# ---------------------------------------------------------------------------
# 10. solvers never return an infeasible layout


def test_criterion_10_fuzz_feasibility_of_all_solver_outputs():
    solver_runs = 0
    sa_cfg = SaConfig(inner_loops=10, freeze_stall_loops=3)
    for seed in range(1000):
        params = GenParams(
            transaction_count=1 + seed % 4,
            table_count=1 + seed % 3,
            max_queries_per_transaction=1 + seed % 2,
            update_percent=float(seed % 5) * 25.0,
            max_attributes_per_table=1 + seed % 4,
            max_table_refs_per_query=2,
            max_attribute_refs_per_query=4,
            seed=seed,
        )
        inst = generate(
            params,
            site_count=1 + seed % 3,
            latency_penalty=3.0 if seed % 7 == 0 else None,
        )
        model = derive(inst)

        def check(tag, report):
            nonlocal solver_runs
            assert report.partitioning is not None, f"seed {seed} {tag}"
            violations = check_feasible(inst, model, report.partitioning)
            assert violations == [], f"seed {seed} {tag}: {violations[:3]}"
            solver_runs += 1

        report, _ = solve_sa(inst, replace(sa_cfg, seed=seed))
        check("sa", report)
        if seed % 10 == 0:
            check("exact", solve_exact(inst, ExactConfig(time_limit=30.0)))
        if seed % 50 == 0 and enumeration_size(inst, False) <= 2_000_000:
            result = brute_force(inst)
            violations = check_feasible(inst, model, result.partitioning)
            assert violations == [], f"seed {seed} brute: {violations[:3]}"
            solver_runs += 1
    assert solver_runs >= 1000
    print(f"\n[criterion 10] {solver_runs} solver outputs across 1000 seeded "
          f"instances, all feasible: PASS")
