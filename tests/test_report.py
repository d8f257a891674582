"""Every solver returns one priced result: the report's breakdown is what
``evaluate`` makes of its layout, and its score and objective read from it.
A report without a layout is checked in ``test_mip.py``."""
from __future__ import annotations

import dataclasses
import json

import pytest

from vpadvisor import (
    ExactConfig,
    SaConfig,
    brute_force,
    derive,
    evaluate,
    group_attributes,
    load_partitioning,
    save_instance,
    solve_exact,
    solve_sa,
    solve_sa_best_of,
)
from vpadvisor import cli

from conftest import random_instance


def _grouped_cli_solve(instance):
    argv = ["solve", "unused.json", "--group", "--format", "structured"]
    return cli._solve_instance(instance, cli.build_parser().parse_args(argv))


SOLVERS = {
    "solve_sa": lambda inst: solve_sa(inst, SaConfig(seed=1))[0],
    "solve_sa_best_of": lambda inst: solve_sa_best_of(inst, 3, SaConfig(seed=1))[0],
    "solve_exact": lambda inst: solve_exact(inst, ExactConfig(gap=0.0)),
    "brute_force": brute_force,
    "cli-solve-group": _grouped_cli_solve,
}


@pytest.fixture
def instance():
    # latency priced, and attributes that --group merges (4 into 2)
    inst = random_instance(0, site_count=2, latency_penalty=3.0)
    reduced, _ = group_attributes(inst, derive(inst))
    assert reduced.attribute_count < inst.attribute_count
    return inst


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_report_carries_the_breakdown_of_its_layout(solve, instance):
    report = solve(instance)
    assert report.breakdown == evaluate(instance, derive(instance), report.partitioning)
    assert report.score == report.breakdown.score
    assert report.objective == report.breakdown.objective


def test_grouped_structured_record_prints_the_breakdown(instance, tmp_path, capsys):
    path, out = tmp_path / "inst.json", tmp_path / "layout.json"
    save_instance(instance, str(path))
    argv = ["solve", str(path), "--group", "--format", "structured", "--out", str(out)]
    assert cli.main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    priced = evaluate(instance, derive(instance), load_partitioning(instance, str(out)))
    assert record["breakdown"] == json.loads(json.dumps(dataclasses.asdict(priced)))
    assert record["report"]["score"] == priced.score
    assert record["report"]["objective"] == priced.objective

