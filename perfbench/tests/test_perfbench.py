"""Smoke tests of the benchmark: every workload on a tiny instance, the
correctness gate, the tracer's handling of missing layers, and the
refusal to run without the program's sources.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
from workloads import WORKLOADS, Gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_run_reports_every_metric_and_no_failure(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert detail["fail_frac"] == 0
    assert detail["env"]["seed"] == 1


def _solve(tmp_path: Path, workload: str):
    import vpadvisor.cli as cli

    spec = WORKLOADS[workload]
    instance = str(tmp_path / "instance.json")
    out = str(tmp_path / "layout.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(spec.gen_argv(instance, tiny=True)) == 0
    argv = spec.argv(instance, out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return Gate(spec, instance), argv, rc, buf.getvalue(), Path(out)


def test_gate_passes_a_correct_solve(tmp_path):
    gate, argv, rc, stdout, _ = _solve(tmp_path, "gen-sa-read")
    problems, facts = gate.check(argv, rc, stdout)
    assert problems == []
    assert facts["score"] > 0 and facts["evals_per_s"] > 0


def test_gate_fails_a_layout_without_a_required_replica(tmp_path):
    gate, argv, rc, stdout, out = _solve(tmp_path, "gen-sa-read")
    layout = json.loads(out.read_text())
    model, instance = gate.model, gate.instance
    txn = instance.transactions[0]
    site = layout["x"][txn.name]
    attr = instance.attributes[int(model.txn_reads[:, txn.id].nonzero()[0][0])]
    ref = f"{instance.tables[attr.table_id].name}.{attr.name}"
    layout["y"][ref] = [s for s in layout["y"][ref] if s != site] or [(site + 1) % instance.site_count]
    out.write_text(json.dumps(layout))
    problems, _ = gate.check(argv, rc, stdout)
    assert problems, "a layout missing a required replica passed the gate"


def test_gate_fails_a_wrong_score_and_a_bad_exit(tmp_path):
    gate, argv, rc, stdout, _ = _solve(tmp_path, "gen-sa-read")
    record = json.loads(stdout)
    record["report"]["score"] *= 1.01
    assert gate.check(argv, rc, json.dumps(record))[0]
    assert gate.check(argv, 3, stdout)[0] == ["exit code 3"]


def test_gate_fails_an_export_whose_counts_disagree(tmp_path):
    import vpadvisor.cli as cli

    spec = WORKLOADS["gen-export"]
    instance = str(tmp_path / "instance.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(spec.gen_argv(instance, tiny=True)) == 0
    argv = spec.argv(instance, str(tmp_path / "model.mps"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    gate = Gate(spec, instance)
    assert gate.check(argv, rc, buf.getvalue())[0] == []
    wrong = buf.getvalue().replace(" variables", "1 variables", 1)
    assert gate.check(argv, rc, wrong)[0]


def test_missing_layer_is_absent_and_patches_are_undone(monkeypatch):
    import vpadvisor.cli  # noqa: F401  (loads every importing module)
    import vpadvisor.mip as mip

    targets = tracing.TARGETS + (("vpadvisor.mip", "no_such_function", "mip.gone", {}),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    original = mip.build_mip
    tracer = tracing.Tracer()
    with tracing.traced_layers(tracer) as present:
        assert "mip.gone" not in present
        assert {"mip.build_mip", "workload.derive", "mip.lp"} <= present
        assert mip.build_mip is not original
        mip.build_mip(_tiny_instance())  # outside a root span: not recorded
        assert tracer.take()["calls"] == {}
        tracer.call("cli", mip.build_mip, _tiny_instance())
        taken = tracer.take()
        assert taken["calls"]["mip.build_mip"] == 1
        assert taken["calls"]["workload.derive"] == 1
        assert taken["counts"]["mip.build_mip.vars"] > 0
    assert mip.build_mip is original


def _tiny_instance():
    import vpadvisor as vp

    return vp.generate(vp.GenParams(transaction_count=3, table_count=2,
                                    max_attributes_per_table=3, seed=1), site_count=2)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "gen-sa-read", "--seconds", "0.1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
