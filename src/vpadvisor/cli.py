"""Command-line front end.

Subcommands: ``gen`` (write a benchmark instance), ``solve`` (run a
solver and report costs), ``eval`` (price a stored partitioning),
``compare`` (replication on/off, or local p=0 versus remote p), and
``export`` (write the integer program as free-MPS or LP text).

Exit codes: 0 success, 1 usage problems (including refused oversized
enumerations), 2 invalid instances / layouts / documents, 3 solver
timeout without any solution.  The environment variable
``VPADVISOR_CONFIG`` may name a JSON file of default flag values
(keys: sites, seed and runs hold integers; p, lambda, p_latency,
time_limit and gap hold numbers).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from . import __version__
from .anneal import SaConfig, solve_sa_best_of
from .errors import BudgetExceededError, FormatError, _ViolationsError
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
from .oracle import DEFAULT_ENUMERATION_BUDGET, brute_force
from .partitioning import CostBreakdown, evaluate
from .report import STATUS_FEASIBLE_TIME_LIMIT, SolveReport
from .tpcc import tpcc
from .workload import Instance, derive

if TYPE_CHECKING:  # mip loads scipy; the commands that need it import it
    from .mip import ExactConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures map to exit code 1."""

    def error(self, message: str):  # noqa: D401 - argparse contract
        raise _UsageError(f"{self.prog}: {message}")


_ENV_CONFIG = "VPADVISOR_CONFIG"
_ENV_KEYS = ("sites", "p", "lambda", "p_latency", "time_limit", "gap", "seed", "runs")
_ENV_INTEGER_KEYS = ("sites", "seed", "runs")


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
    # the values bypass argparse's conversion, so the types are checked here
    for key, value in obj.items():
        integral = key in _ENV_INTEGER_KEYS
        if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
            want = "an integer" if integral else "a number"
            raise FormatError(f"{_ENV_CONFIG} file '{path}': '{key}' must be {want}, "
                              f"got {json.dumps(value)}")
    return {"lam" if k == "lambda" else k: v for k, v in obj.items()}


def _given(args: argparse.Namespace, **fields: str) -> Dict[str, Any]:
    """Keyword arguments from the flags that were given: each field of
    ``fields`` takes the value of the flag it names, when not ``None``."""
    return {
        field: getattr(args, flag)
        for field, flag in fields.items()
        if getattr(args, flag, None) is not None
    }


def _apply_overrides(instance: Instance, args: argparse.Namespace) -> Instance:
    updates = _given(
        args, site_count="sites", network_penalty="p", cost_weight="lam",
        latency_penalty="p_latency",
    )
    return replace(instance, **updates) if updates else instance


def _exact_config(args: argparse.Namespace, **fields: Any) -> ExactConfig:
    """The exact solver's settings: ``--time-limit`` and ``--gap`` when
    given, then ``fields``; the rest keep the dataclass defaults."""
    from . import mip

    return mip.ExactConfig(**{**_given(args, time_limit="time_limit", gap="gap"), **fields})


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


def _report_obj(report: SolveReport, instance: Instance) -> Dict[str, Any]:
    return {
        "status": report.status,
        "objective": report.objective,
        "score": report.score,
        "bound_gap": None if math.isinf(report.bound_gap) else report.bound_gap,
        "wall_time": report.wall_time,
        "node_count": report.node_count,
        "partitioning": partitioning_to_obj(instance, report.partitioning),
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
    return json.dumps(record, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# gen


def _widths(text: str) -> Tuple[int, ...]:
    """The ``--widths`` flag: comma-separated integers."""
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got '{text}'") from None


def cmd_generate(args: argparse.Namespace) -> int:
    if args.preset == "tpcc":
        instance = tpcc()
    else:
        params = GenParams(**_given(
            args, transaction_count="transactions", table_count="tables",
            max_queries_per_transaction="max_queries", update_percent="update_percent",
            max_attributes_per_table="max_attrs", max_table_refs_per_query="max_table_refs",
            max_attribute_refs_per_query="max_attr_refs", allowed_widths="widths", seed="seed",
        ))
        instance = generate(params)
    instance = _apply_overrides(instance, args)
    derive(instance)  # rejects what solve would, overflowing costs included
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
        name, eq, site_text = text.rpartition("=")  # a column name may hold "="
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


# The flags each solver applies; the others are left out of its record,
# and a --disjoint or --pin that the solver lacks is refused.
_ECHOED = {
    "sa": ("seed", "runs", "time_limit"),
    "exact": ("time_limit", "gap", "disjoint", "pin"),
    "brute": ("budget", "disjoint"),
}


def _run_solver(
    instance: Instance, args: argparse.Namespace, forbid: bool, **fields: Any
) -> SolveReport:
    """The one call into the solvers: ``args.algo`` on ``instance`` with
    the flags it reads, replication forbidden when ``forbid``; ``fields``
    override the exact solver's settings and are ignored by the others."""
    if args.algo == "sa":
        cfg = SaConfig(**_given(args, seed="seed", time_limit="time_limit"))
        report, _ = solve_sa_best_of(instance, args.runs if args.runs is not None else 1, cfg)
        return report
    if args.algo == "brute":
        return brute_force(instance, budget=args.budget, forbid_replication=forbid)
    from . import mip

    return mip.solve_exact(instance, _exact_config(args, forbid_replication=forbid, **fields))


def _solve_instance(instance: Instance, args: argparse.Namespace) -> SolveReport:
    """Run the chosen solver.  A grouped solve is expanded back to the
    original attributes and re-priced on ``instance``; below ``lambda =
    1``, where merging attributes can exclude the optimum, it claims no
    bound."""
    solved, grouping, model = instance, None, None
    if args.group:
        if args.pin:
            raise _UsageError("--pin cannot be combined with --group")
        model = derive(instance)
        solved, grouping = group_attributes(instance, model)
    for flag in ("disjoint", "pin"):
        if getattr(args, flag) and flag not in _ECHOED[args.algo]:
            algos = " or ".join(algo for algo, flags in _ECHOED.items() if flag in flags)
            raise _UsageError(f"--{flag} is only supported with --algo {algos}")
    report = _run_solver(solved, args, args.disjoint, fixed_replicas=_parse_pins(solved, args.pin))
    if grouping is None or report.partitioning is None:
        return report
    part = expand_solution(report.partitioning, grouping)
    report = replace(report, partitioning=part, breakdown=evaluate(instance, model, part))
    if instance.cost_weight < 1.0 and grouping.group_count < instance.attribute_count:
        report = replace(report, status=STATUS_FEASIBLE_TIME_LIMIT, bound_gap=math.inf)
    return report


def _solver_config_echo(args: argparse.Namespace) -> Dict[str, Any]:
    """The settings the chosen solver applied, as given; a non-finite
    number is ``None``, as JSON has no token for it."""
    echo: Dict[str, Any] = {"algo": args.algo}
    for key in _ECHOED[args.algo] + ("group",):
        value = getattr(args, key, None)
        if value is None or value is False or value == []:
            continue  # not given
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        echo[key] = value
    return echo


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _apply_overrides(load_instance(args.instance), args)
    report = _solve_instance(instance, args)
    if report.partitioning is None:
        print("no solution found within the time limit", file=sys.stderr)
        return 3
    if args.out:
        save_partitioning(instance, report.partitioning, args.out)
    if args.format == "structured":
        body = {
            "report": _report_obj(report, instance),
            "breakdown": asdict(report.breakdown),
        }
        sys.stdout.write(_run_record("solve", instance, args.algo, _solver_config_echo(args), body))
        return 0
    gap_text = "n/a" if math.isinf(report.bound_gap) else f"{report.bound_gap:.6g}"
    print(f"solver    {args.algo}")
    print(f"status    {report.status}")
    print(f"nodes     {report.node_count}")
    print(f"gap       {gap_text}")
    for line in _breakdown_lines(report.breakdown):
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
        body = {"breakdown": asdict(breakdown)}
        sys.stdout.write(_run_record("eval", instance, "eval", {}, body))
        return 0
    for line in _breakdown_lines(breakdown):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args: argparse.Namespace) -> int:
    """Solve both sides within one ``--time-limit``: the left side gets
    half of it, the right side what is left.  Brute force reads neither
    ``--time-limit`` nor ``--gap``, and loads no scipy."""
    limit = math.inf  # brute force keeps no clock
    if args.algo == "exact":
        limit = _exact_config(args).time_limit  # imports scipy before the clock starts
    started = time.perf_counter()
    instance = _apply_overrides(load_instance(args.instance), args)
    if args.mode == "replication":
        left_label, right_label = "replicated", "disjoint"
        left_instance = right_instance = instance
    else:
        left_label, right_label = "local (p=0)", f"remote (p={instance.network_penalty:g})"
        left_instance = replace(instance, network_penalty=0.0)
        right_instance = instance
    reports = []
    for label, side, forbid in (
        (left_label, left_instance, False),
        (right_label, right_instance, args.mode == "replication"),
    ):
        elapsed = time.perf_counter() - started
        share = max(0.0, limit - elapsed) if reports else limit / 2
        rep = _run_solver(side, args, forbid, time_limit=share)
        if rep.partitioning is None:
            print(f"no solution for the {label} side within the time limit", file=sys.stderr)
            return 3
        reports.append(rep)
    left, right = reports
    # a ratio over a zero right side is undefined: null, or n/a in text
    score_ratio = left.score / right.score if right.score else None
    objective_ratio = left.objective / right.objective if right.objective else None
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
    for label, rep in ((left_label, left), (right_label, right)):
        print(
            f"{label.ljust(width)}  {rep.objective:>14.6g}  {rep.score:>14.6g}  "
            f"{rep.breakdown.max_load:>14.6g}  {rep.status}"
        )
    for label, ratio in (("ratio (score)", score_ratio), ("ratio (objective)", objective_ratio)):
        print(f"{label:<19}{'n/a' if ratio is None else f'{ratio:.4f}'}")
    return 0


# ---------------------------------------------------------------------------
# export


def cmd_export(args: argparse.Namespace) -> int:
    from . import program  # loads scipy.sparse, not scipy's solvers

    instance = _apply_overrides(load_instance(args.instance), args)
    model = program.build_mip(
        instance,
        use_symmetry=args.symmetry,
        forbid_replication=args.disjoint,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            program.export_model(model, args.fmt, fh)
        print(
            f"wrote {args.out}: {model.variable_count} variables, "
            f"{model.constraint_count} constraints"
        )
    else:
        program.export_model(model, args.fmt, sys.stdout)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vpadvisor", description=__doc__)
    parser.add_argument("--version", action="version", version=f"vpadvisor {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a benchmark instance file")
    gen.add_argument("output", help="path of the instance file to write")
    gen.add_argument("--preset", choices=["tpcc"], default=None, help="built-in instance")
    # flags left out keep the GenParams defaults
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--transactions", type=int)
    gen.add_argument("--tables", type=int)
    gen.add_argument("--max-queries", type=int, help="queries per transaction bound")
    gen.add_argument("--update-percent", type=float)
    gen.add_argument("--max-attrs", type=int, help="attributes per table bound")
    gen.add_argument("--max-table-refs", type=int)
    gen.add_argument("--max-attr-refs", type=int)
    gen.add_argument("--widths", type=_widths, help="comma-separated attribute widths")
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

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        defaults = _env_defaults()  # a bad file fails before any argument does
        args = build_parser().parse_args(argv)
        for flag, value in defaults.items():
            # each such flag defaults to None, which marks it as not given
            if hasattr(args, flag) and getattr(args, flag) is None:
                setattr(args, flag, value)
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
    except _ViolationsError as exc:
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
