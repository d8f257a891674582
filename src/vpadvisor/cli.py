"""Command-line front end.

Subcommands: ``gen`` (write a benchmark instance), ``solve`` (run a
solver and report costs), ``eval`` (price a stored partitioning),
``compare`` (replication on/off, or local p=0 versus remote p), and
``export`` (write the integer program as free-MPS or LP text).

Exit codes: 0 success, 1 usage problems (including refused oversized
enumerations), 2 invalid instances / layouts / documents, 3 solver
timeout without any solution.  The environment variable
``VPADVISOR_CONFIG`` may name a JSON file of default flag values
(keys: sites, p, lambda, p_latency, time_limit, gap, seed, runs).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

from . import __version__
from .anneal import SaConfig, SaTrace, solve_sa_best_of
from .errors import (
    BudgetExceededError,
    FormatError,
    InfeasibleLayoutError,
    ValidationError,
)
from .fileio import (
    fingerprint_instance,
    load_instance,
    load_partitioning,
    partitioning_to_obj,
    save_instance,
    save_partitioning,
)
from .generators import GenParams, generate
from .grouping import expand_solution, group_attributes
from .mip import (
    DEFAULT_ENUMERATION_BUDGET,
    ExactConfig,
    brute_force,
    build_mip,
    export_model,
    solve_exact,
)
from .partitioning import CostBreakdown, evaluate
from .report import (
    STATUS_NO_SOLUTION_TIME_LIMIT,
    STATUS_OPTIMAL,
    SolveReport,
)
from .tpcc import tpcc
from .workload import Instance, derive


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures map to exit code 1."""

    def error(self, message: str):  # noqa: D401 - argparse contract
        raise _UsageError(f"{self.prog}: {message}")


_ENV_CONFIG = "VPADVISOR_CONFIG"
_ENV_KEYS = {
    "sites": "sites",
    "p": "p",
    "lambda": "lam",
    "p_latency": "p_latency",
    "time_limit": "time_limit",
    "gap": "gap",
    "seed": "seed",
    "runs": "runs",
}


def _env_defaults() -> Dict[str, Any]:
    path = os.environ.get(_ENV_CONFIG)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {_ENV_CONFIG} file '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{_ENV_CONFIG} file '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{_ENV_CONFIG} file '{path}' must hold a JSON object")
    unknown = sorted(set(obj) - set(_ENV_KEYS))
    if unknown:
        raise FormatError(f"{_ENV_CONFIG} file '{path}': unknown keys {unknown}")
    return {_ENV_KEYS[k]: v for k, v in obj.items()}


def _apply_overrides(instance: Instance, args: argparse.Namespace) -> Instance:
    updates: Dict[str, Any] = {}
    if getattr(args, "sites", None) is not None:
        updates["site_count"] = args.sites
    if getattr(args, "p", None) is not None:
        updates["network_penalty"] = args.p
    if getattr(args, "lam", None) is not None:
        updates["cost_weight"] = args.lam
    if getattr(args, "p_latency", None) is not None:
        updates["latency_penalty"] = args.p_latency
    return replace(instance, **updates) if updates else instance


def _scaled(value: float) -> str:
    return f"{value:.6g}  [{value / 1e5:.4g}x10^5 | {value / 1e6:.4g}x10^6]"


def _breakdown_lines(breakdown: CostBreakdown) -> List[str]:
    lines = [
        f"  read access (A_R)   {_scaled(breakdown.read_access)}",
        f"  write access (A_W)  {_scaled(breakdown.write_access)}",
        f"  transfer (B)        {_scaled(breakdown.transfer)}",
        f"  objective (A + pB)  {_scaled(breakdown.objective)}",
        "  site loads          "
        + ", ".join(f"s{i}={v:.6g}" for i, v in enumerate(breakdown.site_loads)),
        f"  max load (m)        {_scaled(breakdown.max_load)}",
        f"  score               {_scaled(breakdown.score)}",
    ]
    if breakdown.latency is not None:
        lines.append(f"  latency charge      {_scaled(breakdown.latency)}")
    return lines


def _breakdown_obj(breakdown: CostBreakdown) -> Dict[str, Any]:
    return {
        "read_access": breakdown.read_access,
        "write_access": breakdown.write_access,
        "transfer": breakdown.transfer,
        "objective": breakdown.objective,
        "site_loads": list(breakdown.site_loads),
        "max_load": breakdown.max_load,
        "score": breakdown.score,
        "latency": breakdown.latency,
    }


def _report_obj(report: SolveReport, instance: Instance) -> Dict[str, Any]:
    return {
        "status": report.status,
        "objective": report.objective,
        "score": report.score,
        "bound_gap": None if math.isinf(report.bound_gap) else report.bound_gap,
        "wall_time": report.wall_time,
        "node_count": report.node_count,
        "partitioning": None
        if report.partitioning is None
        else partitioning_to_obj(instance, report.partitioning),
    }


def _run_record(command: str, instance: Instance, solver: str, config: Dict[str, Any], body: Dict[str, Any]) -> str:
    record = {
        "command": command,
        "fingerprint": fingerprint_instance(instance),
        "solver": solver,
        "config": config,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    record.update(body)
    return json.dumps(record, indent=2) + "\n"


# ---------------------------------------------------------------------------
# gen


def cmd_generate(args: argparse.Namespace) -> int:
    if args.preset == "tpcc":
        instance = tpcc(
            site_count=args.sites if args.sites is not None else 2,
            network_penalty=args.p if args.p is not None else 8.0,
            cost_weight=args.lam if args.lam is not None else 0.1,
            latency_penalty=args.p_latency,
        )
    else:
        params = GenParams(
            transaction_count=args.transactions,
            table_count=args.tables,
            max_queries_per_transaction=args.max_queries,
            update_percent=args.update_percent,
            max_attributes_per_table=args.max_attrs,
            max_table_refs_per_query=args.max_table_refs,
            max_attribute_refs_per_query=args.max_attr_refs,
            allowed_widths=tuple(int(w) for w in args.widths.split(",")),
            seed=args.seed if args.seed is not None else 0,
        )
        instance = generate(
            params,
            site_count=args.sites if args.sites is not None else 2,
            network_penalty=args.p if args.p is not None else 8.0,
            cost_weight=args.lam if args.lam is not None else 0.1,
            latency_penalty=args.p_latency,
        )
    save_instance(instance, args.output)
    print(
        f"wrote {args.output}: {len(instance.tables)} tables, "
        f"{instance.attribute_count} attributes, {instance.transaction_count} transactions"
    )
    return 0


# ---------------------------------------------------------------------------
# solve


def _parse_pins(instance: Instance, pin_args: List[str]) -> Tuple[Tuple[int, int], ...]:
    """Turn ``Table.col=SITE`` strings into (attribute id, site) pairs."""
    if not pin_args:
        return ()
    by_name = {
        f"{instance.tables[attr.table_id].name}.{attr.name}": attr.id
        for attr in instance.attributes
    }
    pins = []
    for text in pin_args:
        name, eq, site_text = text.partition("=")
        if not eq or name not in by_name:
            raise _UsageError(f"--pin expects Table.col=SITE with a known attribute, got '{text}'")
        try:
            site = int(site_text)
        except ValueError:
            raise _UsageError(f"--pin site must be an integer, got '{text}'") from None
        if not 0 <= site < instance.site_count:
            raise _UsageError(f"--pin site out of range [0, {instance.site_count}): '{text}'")
        pins.append((by_name[name], site))
    return tuple(pins)


def _brute_report(instance: Instance, budget: int, forbid_replication: bool) -> SolveReport:
    """Exhaustive enumeration, reported like the other solvers."""
    started = time.perf_counter()
    result = brute_force(instance, budget=budget, forbid_replication=forbid_replication)
    return SolveReport(
        partitioning=result.partitioning,
        objective=result.objective,
        score=result.score,
        bound_gap=0.0,
        wall_time=time.perf_counter() - started,
        node_count=result.combinations,
        status=STATUS_OPTIMAL,
    )


def _solve_dispatch(
    instance: Instance, args: argparse.Namespace
) -> Tuple[SolveReport, Optional[Tuple[SaTrace, ...]]]:
    if args.algo == "sa":
        if args.disjoint:
            raise _UsageError("--disjoint is only supported with --algo exact or brute")
        if args.pin:
            raise _UsageError("--pin is only supported with --algo exact")
        cfg = SaConfig(seed=args.seed if args.seed is not None else 0)
        if args.time_limit is not None:
            cfg = replace(cfg, time_limit=args.time_limit)
        runs = args.runs if args.runs is not None else 1
        report, traces = solve_sa_best_of(instance, runs, cfg)
        return report, traces
    if args.algo == "exact":
        cfg = ExactConfig(
            time_limit=args.time_limit if args.time_limit is not None else 1800.0,
            gap=args.gap if args.gap is not None else 1e-3,
            forbid_replication=args.disjoint,
            warm_start=not args.no_warm_start,
            fixed_replicas=_parse_pins(instance, args.pin),
        )
        return solve_exact(instance, cfg), None
    if args.algo == "brute":
        if args.pin:
            raise _UsageError("--pin is only supported with --algo exact")
        return _brute_report(instance, args.budget, args.disjoint), None
    raise _UsageError(f"unknown algorithm '{args.algo}'")


def _solve_instance(instance: Instance, args: argparse.Namespace) -> Tuple[SolveReport, Optional[CostBreakdown]]:
    """Run the chosen solver, expanding a grouped solve back to the
    original attributes; the report is always priced on ``instance``."""
    if args.group:
        if getattr(args, "pin", None):
            raise _UsageError("--pin cannot be combined with --group")
        reduced, grouping = group_attributes(instance, derive(instance))
        report, _ = _solve_dispatch(reduced, args)
        if report.partitioning is None:
            return report, None
        part = expand_solution(report.partitioning, grouping)
        breakdown = evaluate(instance, derive(instance), part)
        report = replace(
            report,
            partitioning=part,
            objective=breakdown.objective,
            score=breakdown.score,
        )
        return report, breakdown
    report, _ = _solve_dispatch(instance, args)
    if report.partitioning is None:
        return report, None
    breakdown = evaluate(instance, derive(instance), report.partitioning)
    return report, breakdown


def _solver_config_echo(args: argparse.Namespace) -> Dict[str, Any]:
    echo: Dict[str, Any] = {"algo": args.algo}
    for key in ("seed", "runs", "time_limit", "gap", "budget"):
        value = getattr(args, key, None)
        if value is not None:
            echo[key] = value
    for key in ("group", "disjoint", "no_warm_start"):
        if getattr(args, key, False):
            echo[key] = True
    if getattr(args, "pin", None):
        echo["pin"] = list(args.pin)
    return echo


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _apply_overrides(load_instance(args.instance), args)
    report, breakdown = _solve_instance(instance, args)
    if report.status == STATUS_NO_SOLUTION_TIME_LIMIT or report.partitioning is None:
        print("no solution found within the time limit", file=sys.stderr)
        return 3
    if args.out:
        save_partitioning(instance, report.partitioning, args.out)
    if args.format == "structured":
        body = {
            "report": _report_obj(report, instance),
            "breakdown": _breakdown_obj(breakdown),
        }
        sys.stdout.write(_run_record("solve", instance, args.algo, _solver_config_echo(args), body))
        return 0
    gap_text = "n/a" if math.isinf(report.bound_gap) else f"{report.bound_gap:.6g}"
    print(f"solver    {args.algo}")
    print(f"status    {report.status}")
    print(f"nodes     {report.node_count}")
    print(f"gap       {gap_text}")
    for line in _breakdown_lines(breakdown):
        print(line)
    print(f"runtime   {report.wall_time:.3f} s")
    if args.out:
        print(f"partitioning written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args: argparse.Namespace) -> int:
    instance = _apply_overrides(load_instance(args.instance), args)
    partitioning = load_partitioning(instance, args.partitioning)
    breakdown = evaluate(instance, derive(instance), partitioning)
    if args.format == "structured":
        body = {"breakdown": _breakdown_obj(breakdown)}
        sys.stdout.write(_run_record("eval", instance, "eval", {}, body))
        return 0
    for line in _breakdown_lines(breakdown):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# compare


def _exact_for_compare(
    instance: Instance, args: argparse.Namespace, forbid: bool, time_limit: float
) -> SolveReport:
    if args.algo == "brute":
        return _brute_report(instance, args.budget, forbid)
    cfg = ExactConfig(
        time_limit=time_limit,
        gap=args.gap if args.gap is not None else 1e-3,
        forbid_replication=forbid,
    )
    return solve_exact(instance, cfg)


def cmd_compare(args: argparse.Namespace) -> int:
    """Solve both sides within one ``--time-limit``: the left side gets
    half of it, the right side what is left."""
    started = time.perf_counter()
    instance = _apply_overrides(load_instance(args.instance), args)
    if args.mode == "replication":
        left_label, right_label = "replicated", "disjoint"
        left_instance = right_instance = instance
    else:
        left_label, right_label = "local (p=0)", f"remote (p={instance.network_penalty:g})"
        left_instance = replace(instance, network_penalty=0.0)
        right_instance = instance
    right_forbid = args.mode == "replication"
    time_limit = args.time_limit if args.time_limit is not None else 1800.0
    left = _exact_for_compare(left_instance, args, False, time_limit / 2)
    time_left = max(0.0, time_limit - (time.perf_counter() - started))
    right = _exact_for_compare(right_instance, args, right_forbid, time_left)
    sides = ((left_label, left, left_instance), (right_label, right, right_instance))
    for label, rep, _ in sides:
        if rep.status == STATUS_NO_SOLUTION_TIME_LIMIT or rep.partitioning is None:
            print(f"no solution for the {label} side within the time limit", file=sys.stderr)
            return 3
    score_ratio = left.score / right.score if right.score else math.inf
    objective_ratio = left.objective / right.objective if right.objective else math.inf
    if args.format == "structured":
        body = {
            "mode": args.mode,
            "left": {"label": left_label, **_report_obj(left, instance)},
            "right": {"label": right_label, **_report_obj(right, instance)},
            "score_ratio": score_ratio,
            "objective_ratio": objective_ratio,
        }
        sys.stdout.write(_run_record("compare", instance, args.algo, _solver_config_echo(args), body))
        return 0
    width = max(len(left_label), len(right_label))
    print(f"mode      {args.mode}")
    print(f"{'side'.ljust(width)}  {'objective':>14}  {'score':>14}  {'max load':>14}  status")
    for label, rep, inst in sides:
        assert rep.partitioning is not None
        breakdown = evaluate(inst, derive(inst), rep.partitioning)
        print(
            f"{label.ljust(width)}  {rep.objective:>14.6g}  {rep.score:>14.6g}  "
            f"{breakdown.max_load:>14.6g}  {rep.status}"
        )
    print(f"ratio (score)      {score_ratio:.4f}")
    print(f"ratio (objective)  {objective_ratio:.4f}")
    return 0


# ---------------------------------------------------------------------------
# export


def cmd_export(args: argparse.Namespace) -> int:
    instance = _apply_overrides(load_instance(args.instance), args)
    model = build_mip(
        instance,
        use_symmetry=args.symmetry,
        forbid_replication=args.disjoint,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            export_model(model, args.fmt, fh)
        print(
            f"wrote {args.out}: {model.variable_count} variables, "
            f"{model.constraint_count} constraints"
        )
    else:
        export_model(model, args.fmt, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sites", type=int, default=None, help="override the site count")
    sub.add_argument("--p", type=float, default=None, help="override the network penalty")
    sub.add_argument(
        "--lambda", dest="lam", type=float, default=None, help="override the cost weight"
    )
    sub.add_argument(
        "--p-latency", dest="p_latency", type=float, default=None, help="price write latency"
    )


def build_parser(defaults: Optional[Dict[str, Any]] = None) -> argparse.ArgumentParser:
    parser = _Parser(prog="vpadvisor", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vpadvisor {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    subcommands: List[argparse.ArgumentParser] = []

    gen = subs.add_parser("gen", help="write a benchmark instance file")
    gen.add_argument("output", help="path of the instance file to write")
    gen.add_argument("--preset", choices=["tpcc"], default=None, help="built-in instance")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--transactions", type=int, default=20)
    gen.add_argument("--tables", type=int, default=20)
    gen.add_argument("--max-queries", type=int, default=3, help="queries per transaction bound")
    gen.add_argument("--update-percent", type=float, default=10.0)
    gen.add_argument("--max-attrs", type=int, default=15, help="attributes per table bound")
    gen.add_argument("--max-table-refs", type=int, default=5)
    gen.add_argument("--max-attr-refs", type=int, default=15)
    gen.add_argument("--widths", default="4,8", help="comma-separated attribute widths")
    _add_config_flags(gen)
    gen.set_defaults(func=cmd_generate)

    solve = subs.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=["sa", "exact", "brute"], default="sa")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--runs", type=int, default=None, help="independent annealing runs")
    solve.add_argument("--time-limit", dest="time_limit", type=float, default=None)
    solve.add_argument("--gap", type=float, default=None)
    solve.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    solve.add_argument("--group", action="store_true", help="merge indistinguishable attributes")
    solve.add_argument("--disjoint", action="store_true", help="forbid replication")
    solve.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="Table.col=SITE",
        help="force a replica of the attribute onto the site (exact solver only)",
    )
    solve.add_argument(
        "--no-warm-start",
        dest="no_warm_start",
        action="store_true",
        help="skip the annealing warm start of the exact solver",
    )
    solve.add_argument("--out", default=None, help="write the partitioning file here")
    solve.add_argument("--format", choices=["text", "structured"], default="text")
    _add_config_flags(solve)
    solve.set_defaults(func=cmd_solve)

    ev = subs.add_parser("eval", help="price a stored partitioning")
    ev.add_argument("instance")
    ev.add_argument("partitioning")
    ev.add_argument("--format", choices=["text", "structured"], default="text")
    _add_config_flags(ev)
    ev.set_defaults(func=cmd_eval)

    comp = subs.add_parser("compare", help="two-sided comparison report")
    comp.add_argument("instance")
    comp.add_argument("--mode", choices=["replication", "placement"], required=True)
    comp.add_argument("--algo", choices=["exact", "brute"], default="exact")
    comp.add_argument("--time-limit", dest="time_limit", type=float, default=None)
    comp.add_argument("--gap", type=float, default=None)
    comp.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    comp.add_argument("--format", choices=["text", "structured"], default="text")
    _add_config_flags(comp)
    comp.set_defaults(func=cmd_compare)

    exp = subs.add_parser("export", help="write the integer program as text")
    exp.add_argument("instance")
    exp.add_argument(
        "--fmt", choices=["free-mps", "mps", "lp-text", "lp"], default="free-mps"
    )
    exp.add_argument("--out", default=None, help="write here instead of standard output")
    exp.add_argument("--symmetry", action="store_true", help="include site-ordering rows")
    exp.add_argument("--disjoint", action="store_true", help="forbid replication")
    _add_config_flags(exp)
    exp.set_defaults(func=cmd_export)

    subcommands.extend([gen, solve, ev, comp, exp])
    if defaults:
        # subparsers parse into a fresh namespace, so defaults set on the
        # root parser never reach them; set them on every subcommand
        for sub in subcommands:
            known = {action.dest for action in sub._actions}
            sub.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        parser = build_parser(_env_defaults())
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, InfeasibleLayoutError) as exc:
        print("invalid input:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
