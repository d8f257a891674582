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
    load_partitioning,
    save_instance,
    solve_exact,
    solve_sa,
    solve_sa_best_of,
)
from vpadvisor import cli
from vpadvisor.workload import _reader_classes

from conftest import random_instance


SOLVERS = {
    "solve_sa": lambda inst: solve_sa(inst, SaConfig(seed=1))[0],
    "solve_sa_best_of": lambda inst: solve_sa_best_of(inst, 3, SaConfig(seed=1))[0],
    "solve_exact": lambda inst: solve_exact(inst, ExactConfig(gap=0.0)),
    "brute_force": brute_force,
}


@pytest.fixture
def instance():
    # latency priced, and attributes that the solvers merge (4 into 2)
    inst = random_instance(0, site_count=2, latency_penalty=3.0)
    merged, _ = _reader_classes(derive(inst))
    assert merged.replica_cost.size < inst.attribute_count
    return inst


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_report_carries_the_breakdown_of_its_layout(solve, instance):
    report = solve(instance)
    assert report.breakdown == evaluate(instance, derive(instance), report.partitioning)
    assert report.score == report.breakdown.score
    assert report.objective == report.breakdown.objective



def test_structured_record_prints_the_breakdown_of_its_layout(instance, tmp_path, capsys):
    path, out = tmp_path / "inst.json", tmp_path / "layout.json"
    save_instance(instance, str(path))
    argv = ["solve", str(path), "--format", "structured", "--out", str(out)]
    assert cli.main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    priced = evaluate(instance, derive(instance), load_partitioning(instance, str(out)))
    assert record["breakdown"] == json.loads(json.dumps(dataclasses.asdict(priced)))
    assert record["report"]["score"] == priced.score
    assert record["report"]["objective"] == priced.objective
