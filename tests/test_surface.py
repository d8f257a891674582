"""The package's public names, and the functions the benchmark's tracer
patches by name."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import vpadvisor

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "__version__",
    "Attribute", "Table", "Query", "Transaction", "Instance", "CostModel",
    "derive", "validate", "lint",
    "Partitioning", "CostBreakdown", "evaluate", "weighted_score", "check_feasible",
    "SaConfig", "SaTrace", "solve_sa", "solve_sa_best_of",
    "MipModel", "build_mip", "export_model", "ExactConfig", "solve_exact",
    "brute_force", "enumeration_size", "DEFAULT_ENUMERATION_BUDGET",
    "SolveReport", "STATUS_OPTIMAL", "STATUS_FEASIBLE_TIME_LIMIT",
    "STATUS_NO_SOLUTION_TIME_LIMIT",
    "GenParams", "generate", "tpcc",
    "load_instance", "save_instance", "parse_instance", "serialize_instance",
    "load_partitioning", "save_partitioning", "parse_partitioning",
    "serialize_partitioning", "fingerprint_instance",
    "VpAdvisorError", "ValidationError", "InfeasibleLayoutError",
    "BudgetExceededError", "FormatError",
]
# The annealer's moves and repairs: module-level in ``anneal``, where
# the tests and the benchmark's tracer reach them, but not package API.
ANNEAL_INTERNALS = [
    "perturb_transactions", "accept_move", "initial_temperature",
    "solve_subproblem_fix_transactions",
]
# Tracer targets that no longer exist; the benchmark reports their
# layers absent until its target list drops them.  The kernels module
# lost its kernels, and the annealer, whose state is the transaction
# assignment alone, lost its replica move and its assignment repair:
# ``anneal.repair_assign`` reads as absent and ``anneal.perturb`` counts
# only ``perturb_transactions``.
KNOWN_ABSENT = {
    ("vpadvisor.kernels", "assign_transactions"),
    ("vpadvisor.kernels", "greedy_replicas"),
    ("vpadvisor.kernels", "folded_cost"),
    ("vpadvisor.anneal", "perturb_replicas"),
    ("vpadvisor.anneal", "solve_subproblem_fix_replicas"),
}


def test_package_exports_exactly_the_public_names():
    assert vpadvisor.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(vpadvisor, name)] == []


def test_annealer_internals_are_not_package_names():
    assert [name for name in ANNEAL_INTERNALS if hasattr(vpadvisor, name)] == []


def _tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_benchmark_tracer_targets_resolve():
    # a renamed target would turn its layer's metrics into zeros
    # silently, as the tracer skips what it cannot find
    targets = _tracer_targets()
    assert len(targets) > len(KNOWN_ABSENT)
    unresolved = []
    for home, name, _, _ in targets:
        if (home, name) in KNOWN_ABSENT:
            continue
        try:
            getattr(importlib.import_module(home), name)
        except (ImportError, AttributeError):
            unresolved.append(f"{home}.{name}")
    assert unresolved == []
