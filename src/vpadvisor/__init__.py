"""Vertical-partitioning advisor for distributed OLTP workloads.

Given a relational schema, a transactional workload, and basic usage
statistics, the package recommends a placement of attributes (possibly
replicated) and transactions (exactly one home site each) across a set
of sites, minimizing a weighted mix of storage-access cost, network
transfer, and peak site load.  Two solvers are provided: an exact
solver that hands a linearized integer program to HiGHS, and a simulated
annealing heuristic that alternates between the two halves of the
placement.

The exact solver's names (``ExactConfig``, ``MipModel``, ``build_mip``,
``export_model``, ``solve_exact``) are served on first access, because
their module loads scipy, which the annealer and the enumerator do not
need.
"""
from __future__ import annotations

from .anneal import (
    SaConfig,
    SaTrace,
    accept_move,
    initial_temperature,
    perturb_replicas,
    perturb_transactions,
    solve_sa,
    solve_sa_best_of,
    solve_subproblem_fix_replicas,
    solve_subproblem_fix_transactions,
)
from .errors import (
    BudgetExceededError,
    FormatError,
    InfeasibleLayoutError,
    ValidationError,
    VpAdvisorError,
)
from .fileio import (
    fingerprint_instance,
    load_instance,
    load_partitioning,
    parse_instance,
    parse_partitioning,
    save_instance,
    save_partitioning,
    serialize_instance,
    serialize_partitioning,
)
from .generators import GenParams, generate
from .grouping import (
    AttributeGrouping,
    expand_solution,
    group_attributes,
    order_transactions_by_load,
)
from .oracle import DEFAULT_ENUMERATION_BUDGET, brute_force, enumeration_size
from .partitioning import (
    CostBreakdown,
    Partitioning,
    check_feasible,
    evaluate,
    weighted_score,
)
from .report import (
    STATUS_FEASIBLE_TIME_LIMIT,
    STATUS_NO_SOLUTION_TIME_LIMIT,
    STATUS_OPTIMAL,
    SolveReport,
)
from .tpcc import tpcc
from .workload import (
    Attribute,
    CostModel,
    Instance,
    Query,
    Table,
    Transaction,
    derive,
    lint,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # workload
    "Attribute",
    "Table",
    "Query",
    "Transaction",
    "Instance",
    "CostModel",
    "derive",
    "validate",
    "lint",
    # partitioning
    "Partitioning",
    "CostBreakdown",
    "evaluate",
    "weighted_score",
    "check_feasible",
    # grouping
    "AttributeGrouping",
    "group_attributes",
    "expand_solution",
    "order_transactions_by_load",
    # annealing
    "SaConfig",
    "SaTrace",
    "initial_temperature",
    "accept_move",
    "perturb_transactions",
    "perturb_replicas",
    "solve_subproblem_fix_transactions",
    "solve_subproblem_fix_replicas",
    "solve_sa",
    "solve_sa_best_of",
    # exact / enumeration
    "MipModel",
    "build_mip",
    "export_model",
    "ExactConfig",
    "solve_exact",
    "brute_force",
    "enumeration_size",
    "DEFAULT_ENUMERATION_BUDGET",
    # reports
    "SolveReport",
    "STATUS_OPTIMAL",
    "STATUS_FEASIBLE_TIME_LIMIT",
    "STATUS_NO_SOLUTION_TIME_LIMIT",
    # instances
    "GenParams",
    "generate",
    "tpcc",
    # files
    "load_instance",
    "save_instance",
    "parse_instance",
    "serialize_instance",
    "load_partitioning",
    "save_partitioning",
    "parse_partitioning",
    "serialize_partitioning",
    "fingerprint_instance",
    # errors
    "VpAdvisorError",
    "ValidationError",
    "InfeasibleLayoutError",
    "BudgetExceededError",
    "FormatError",
]

# Names of the exact-solver module ``mip``, loaded on first access.
_LAZY = ("ExactConfig", "MipModel", "build_mip", "export_model", "solve_exact")


def __getattr__(name: str):
    if name in _LAZY:
        from . import mip

        return getattr(mip, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
