"""Benchmark of the vpadvisor CLI, end to end and per layer.

One run measures one workload in a fresh interpreter:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It writes the workload's instance with ``vpadvisor gen``, then calls
``vpadvisor.cli.main(argv)`` in-process, one command at a time, until
``--seconds`` have passed and at least ``MIN_COMMANDS`` have run.
Every command is checked (see ``workloads.Gate``).  The last line of
standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it holds the environment and the run's other figures.

    python3 perfbench/run.py --all [--seconds S] [--record FILE]

runs every workload untraced and traced, each in its own process,
prints every metric with its unit and the tracing overhead, and can
write them all to a JSON file.  ``--tiny`` shrinks the generated
instances for a quick smoke run.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, Gate, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest commands a full-size run times, so ``cmd_s`` is a median of
#: at least this many samples even where one command takes 7 s.
MIN_COMMANDS = 4
#: Variables that would change the CLI's defaults or its kernel path.
ISOLATED_ENV = ("VPADVISOR_CONFIG", "VPADVISOR_NO_NUMBA")

END_TO_END = (
    ("cmd_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

# (metric, unit, better, kind, layer): kind says how the value is read
# from the per-command layer totals; every value is a mean per command
# except the medians and the ratio.
PER_LAYER = (
    ("traced.cmd_s", "s", "lower", "median", None),
    ("trace.spans", "count", "lower", "spans", None),
    ("trace.overhead_s", "s", "lower", "overhead", None),
    ("score", "cost", "lower", "median", None),
    ("evals_per_s", "1/s", "higher", "median", None),
    ("cli.self_s", "s", "lower", "self", "cli"),
    ("fileio.load_instance.s", "s", "lower", "busy", "fileio.load_instance"),
    ("workload.derive.calls", "count", "lower", "calls", "workload.derive"),
    ("workload.derive.s", "s", "lower", "busy", "workload.derive"),
    ("partitioning.evaluate.calls", "count", "lower", "calls", "partitioning.evaluate"),
    ("partitioning.evaluate.s", "s", "lower", "busy", "partitioning.evaluate"),
    ("mip.solve_exact.self_s", "s", "lower", "self", "mip.solve_exact"),
    ("mip.nodes", "count", "lower", "count", "mip.solve_exact"),
    ("mip.lp.calls", "count", "lower", "calls", "mip.lp"),
    ("mip.lp.s", "s", "lower", "busy", "mip.lp"),
    ("mip.warm_start.s", "s", "lower", "busy", "mip.warm_start"),
    ("mip.reprice.calls", "count", "lower", "calls", "mip.reprice"),
    ("mip.reprice.s", "s", "lower", "busy", "mip.reprice"),
    ("mip.build_mip.s", "s", "lower", "busy", "mip.build_mip"),
    ("mip.build_mip.vars", "count", "lower", "count", "mip.build_mip"),
    ("mip.build_mip.rows", "count", "lower", "count", "mip.build_mip"),
    ("mip.export_model.s", "s", "lower", "busy", "mip.export_model"),
    ("mip.export_model.mb", "MB", "lower", "count", "mip.export_model"),
    ("anneal.solve_sa.self_s", "s", "lower", "self", "anneal.solve_sa"),
    ("anneal.evaluations", "count", "lower", "count", "anneal.solve_sa"),
    ("anneal.steps", "count", "lower", "count", "anneal.solve_sa"),
    ("anneal.accept_ratio", "ratio", "higher", "ratio", "anneal.solve_sa"),
    ("anneal.perturb.calls", "count", "lower", "calls", "anneal.perturb"),
    ("anneal.perturb.s", "s", "lower", "busy", "anneal.perturb"),
    ("anneal.repair_assign.calls", "count", "lower", "calls", "anneal.repair_assign"),
    ("anneal.repair_assign.s", "s", "lower", "busy", "anneal.repair_assign"),
    ("anneal.repair_replicas.calls", "count", "lower", "calls", "anneal.repair_replicas"),
    ("anneal.repair_replicas.s", "s", "lower", "busy", "anneal.repair_replicas"),
    ("kernels.assign_transactions.calls", "count", "lower", "calls", "kernels.assign_transactions"),
    ("kernels.assign_transactions.s", "s", "lower", "busy", "kernels.assign_transactions"),
    ("kernels.greedy_replicas.calls", "count", "lower", "calls", "kernels.greedy_replicas"),
    ("kernels.greedy_replicas.s", "s", "lower", "busy", "kernels.greedy_replicas"),
    ("kernels.folded_cost.calls", "count", "lower", "calls", "kernels.folded_cost"),
    ("kernels.folded_cost.s", "s", "lower", "busy", "kernels.folded_cost"),
)

# Times import and instance generation in a fresh interpreter.
_SETUP_PROBE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import vpadvisor.cli
rc = vpadvisor.cli.main(sys.argv[2:])
print(time.perf_counter() - started, rc)
"""


class SetupError(RuntimeError):
    """The benchmark could not build or set up the program."""


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _environment(seed: int) -> Dict[str, object]:
    import numpy
    import scipy
    from vpadvisor import kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "using_numba": bool(kernels.USING_NUMBA),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def measure_setup(workload: Workload, tmp: Path, tiny: bool) -> List[float]:
    """Import ``vpadvisor.cli`` and generate the instance, each time in
    a fresh interpreter; returns the seconds each set-up took."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = workload.gen_argv(str(tmp / "probe.json"), tiny)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        fields = proc.stdout.strip().splitlines()[-1].split() if proc.stdout.strip() else []
        if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
            raise SetupError(f"set-up failed: {proc.stderr.strip()[-400:]}")
        times.append(float(fields[0]))
    return times


def _import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "vpadvisor" / "cli.py").is_file():
        raise SetupError(f"no vpadvisor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import vpadvisor.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import vpadvisor.cli: {exc}") from exc
    if Path(cli.__file__).resolve().parent != SRC / "vpadvisor":
        raise SetupError(f"imported vpadvisor from {cli.__file__}, not from {SRC}")
    return cli


def _run_cli(main, argv: List[str], tracer) -> Tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = tracer.call("cli", main, argv) if tracer is not None else main(argv)
        except Exception:  # a crash is one failed command, not a failed run
            rc = -1
            err.write(traceback.format_exc())
        took = time.perf_counter() - started
    return rc, out.getvalue(), err.getvalue(), took


def layer_metrics(snaps: List[Dict], present: set, walls: List[float],
                  facts: Dict[str, List[float]],
                  span_cost: float) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics from the per-command tracer totals; also returns
    the metrics whose layer was not found (reported as 0).  The tracing
    overhead is estimated as spans per command times the cost of one
    span, which the host's drift does not blur the way the difference of
    two runs' ``cmd_s`` is blurred."""
    n = max(len(snaps), 1)
    spans = sum(sum(s["calls"].values()) for s in snaps) / n

    def mean(part: str, key: str) -> float:
        return sum(s[part].get(key, 0.0) for s in snaps) / n

    values: Dict[str, float] = {}
    absent: List[str] = []
    for name, _unit, _better, kind, layer in PER_LAYER:
        if layer is not None and layer != "cli" and layer not in present:
            absent.append(name)
        if kind == "median":
            values[name] = _median(walls if name == "traced.cmd_s" else facts.get(name, []))
        elif kind == "spans":
            values[name] = spans
        elif kind == "overhead":
            values[name] = spans * span_cost
        elif kind in ("calls", "busy", "self"):
            values[name] = mean(kind, layer)
        elif kind == "count":
            values[name] = mean("counts", name)
        else:
            evaluations = mean("counts", "anneal.evaluations")
            values[name] = mean("counts", "anneal.accepted") / evaluations if evaluations else 0.0
    return values, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    for var in ISOLATED_ENV:
        os.environ.pop(var, None)
    workload = WORKLOADS[name]
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cli = _import_cli()
        setup_times = measure_setup(workload, tmp, tiny)
        instance = str(tmp / "instance.json")
        rc, _, err, _ = _run_cli(cli.main, workload.gen_argv(instance, tiny), None)
        if rc != 0:
            raise SetupError(f"gen failed: {err.strip()}")
        gate = Gate(workload, instance)
        out_path = str(tmp / ("model.mps" if workload.kind == "export" else "layout.json"))
        argv = workload.argv(instance, out_path)
        min_commands = 1 if tiny else MIN_COMMANDS

        tracer = present = None
        stack = contextlib.ExitStack()
        if trace:
            from tracing import Tracer, traced_layers

            tracer = Tracer()
            present = stack.enter_context(traced_layers(tracer))
        walls: List[float] = []
        facts: Dict[str, List[float]] = {}
        snaps: List[Dict] = []
        failed = 0
        with stack:
            started = time.perf_counter()
            while len(walls) < min_commands or time.perf_counter() - started < seconds:
                rc, stdout, err, took = _run_cli(cli.main, argv, tracer)
                walls.append(took)
                if tracer is not None:
                    snaps.append(tracer.take())
                try:
                    problems, found = gate.check(argv, rc, stdout)
                except Exception as exc:  # an unreadable result is one failed command
                    problems, found = [f"check raised {exc!r}"], {}
                for key, value in found.items():
                    facts.setdefault(key, []).append(value)
                if problems:
                    failed += 1
                    print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
                    if err:
                        print(err.strip()[-2000:], file=sys.stderr)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail = {
            "workload": name,
            "env": _environment(seed),
            "commands": len(walls),
            "fail_frac": failed / len(walls),
            "score": _median(facts["score"]) if "score" in facts else None,
            "evals_per_s": _median(facts["evals_per_s"]) if "evals_per_s" in facts else None,
            "setup_runs_s": setup_times,
            "command_runs_s": walls,
        }
        if trace:
            values, absent = layer_metrics(snaps, present, walls, facts, tracer.span_cost())
            metrics = {m[0]: {"value": values[m[0]], "unit": m[1]} for m in PER_LAYER}
            detail["absent"] = absent
        else:
            values = {
                "cmd_s": _median(walls),
                "peak_rss_mb": peak_mib,
                "setup_s": _median(setup_times),
            }
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only when no other run is using it

    print(f"workload {name}: {len(walls)} commands, {failed} failed, trace={int(trace)}")
    for key, entry in metrics.items():
        print(f"  {key:<36} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(walls),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _child(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> Tuple[Dict, Dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SetupError(f"{name} run failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(seed: int, seconds: float, tiny: bool, record: Optional[str]) -> int:
    results = {}
    for name in WORKLOADS:
        detail, plain = _child(name, seed, seconds, 0, tiny)
        _, traced = _child(name, seed, seconds, 1, tiny)
        m, layers = plain["metrics"], traced["metrics"]
        overhead = layers["traced.cmd_s"]["value"] - m["cmd_s"]["value"]
        results[name] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": {
                **m,
                "evals_per_s": {"value": detail["evals_per_s"], "unit": "1/s"},
                "score": {"value": detail["score"], "unit": "cost"},
                "fail_frac": {"value": detail["fail_frac"], "unit": "ratio"},
            },
            "per_layer": layers,
            "tracing_overhead_s": overhead,
            "env": detail["env"],
        }
        print(f"== {name}  ({plain['attempted']} untraced + {traced['attempted']} traced commands, "
              f"{results[name]['failed']} failed)")
        for key, entry in results[name]["end_to_end"].items():
            value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"  {key:<14} {value} {entry['unit']}")
        cmd = layers["traced.cmd_s"]["value"] or 1.0
        for key, entry in layers.items():
            if entry["value"]:
                share = (f"  ({entry['value'] / cmd:.1%} of cmd)"
                         if entry["unit"] == "s" and key != "traced.cmd_s" else "")
                print(f"    {key:<36} {entry['value']:.6g} {entry['unit']}{share}")
        print(f"  tracing overhead {overhead:+.4f} s per command measured, "
              f"{layers['trace.overhead_s']['value']:.4f} s estimated from span cost")
    if record:
        with open(record, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "seed": seed, "workloads": results}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small generated instances")
    parser.add_argument("--record", help="with --all: write every figure to this JSON file")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.tiny, args.record)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
