"""The exact solver: HiGHS's branch-and-cut on a compact form of the
linearized integer program.

:func:`build_mip` (in :mod:`vpadvisor.program`, served here too) keeps
the paper's full form for export.  The exact solver hands HiGHS a
compact form with the same optimum: auxiliaries only where a coefficient
needs them, and only the McCormick rows each coefficient's sign needs.
Both forms are built block by block into sparse arrays by one row
builder, ``program._Rows``.

HiGHS is driven through scipy's bundled binding
(``scipy.optimize._highspy._core._Highs``), a private module, because
``scipy.optimize.milp`` takes no starting solution.  :class:`_HighsModel`
passes the compact form to it once; its runs change only column bounds
and the time left.  Without pins or ``forbid_replication`` the solve
runs in stages under one deadline: a short annealing run, a re-solve
with the annealer's transaction homes fixed, and the full run started
from the re-solve's solution.

This module imports ``scipy.optimize`` when it loads, so a command that
solves exactly pays for that import before its clock starts.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsSolution,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
)

from . import program
from .anneal import SaConfig, solve_sa
from .errors import InfeasibleLayoutError
from .partitioning import CostBreakdown, Partitioning, evaluate
from .program import _per_site, _placement_rows, _Rows, _symmetry_rows
from .report import (
    STATUS_FEASIBLE_TIME_LIMIT,
    STATUS_NO_SOLUTION_TIME_LIMIT,
    STATUS_OPTIMAL,
    SolveReport,
)
from .workload import CostModel, Instance, _reader_classes, derive

# The full program's names, served here too: ``vpadvisor.mip.build_mip``
# is ``vpadvisor.program.build_mip``.
MipModel, build_mip, export_model = program.MipModel, program.build_mip, program.export_model
# ``scipy.optimize.milp`` is served here too, though nothing here calls
# it: the benchmark harness's tracer (``perfbench/tracing.py``) finds its
# ``mip.lp`` layer through this name, and the harness changes only with
# its own benchmark.  Until then that layer reads zero calls.
milp = optimize.milp


@dataclass(frozen=True)
class ExactConfig:
    """Knobs for :func:`solve_exact`.

    Defaults: a 30-minute wall limit and a 0.1% relative gap.  The
    symmetry rows are used whenever no replicas are pinned (pins make
    sites distinguishable).  When nothing is pinned or disjoint, a quick
    annealing run and a re-solve around its layout give HiGHS a starting
    solution.  Every stage stops at ``time_limit`` from the start of the
    solve, and ``gap`` is the relative gap of both HiGHS runs.
    """

    time_limit: float = 1800.0
    gap: float = 1e-3
    forbid_replication: bool = False
    fixed_replicas: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.time_limit >= 0:
            raise ValueError("time_limit must be nonnegative")
        if not self.gap >= 0:
            raise ValueError("gap must be nonnegative")


def _sorted_pins(
    fixed_replicas: Sequence[Tuple[int, int]], n_attrs: int, n_sites: int
) -> List[Tuple[int, int]]:
    """Distinct ``(attribute, site)`` pins in order; rejects unknown ids."""
    pins = sorted({(int(a), int(s)) for a, s in fixed_replicas})
    for a, s in pins:
        if not 0 <= a < n_attrs:
            raise ValueError(f"pinned replica names unknown attribute {a}")
        if not 0 <= s < n_sites:
            raise ValueError(f"pinned replica names unknown site {s}")
    return pins


def _compact_model(
    instance: Instance,
    model: CostModel,
    *,
    forbid_replication: bool,
    fixed_replicas: Sequence[Tuple[int, int]],
) -> Dict[str, object]:
    """The solve-time program of ``model`` as the plain arrays that
    :class:`_HighsModel` passes to HiGHS: ``c``, ``integrality``, column
    bounds ``lower`` and ``upper``, and the CSR ``matrix`` with its row
    bounds ``row_lower`` and ``row_upper``.

    ``model`` is the instance's full model or a merged one (see
    :func:`_reader_classes`), whose rows it places as attributes; the
    pins name those rows.  It has the optimum of :func:`build_mip`'s
    program on the same rows with fewer columns and rows:

    * ``u[t,a,s]`` exists only where the product ``x[t,s] * y[a,s]``
      carries an objective or load coefficient or enters a latency row.
      Where ``a`` is a forced read of ``t``, the read row makes the
      product equal to ``x[t,s]``, so ``x`` takes its coefficients.
    * Of the McCormick rows only the sides the objective pushes against
      are kept: ``u >= x + y - 1`` where a small ``u`` pays (a positive
      cost or a load term), ``u <= x`` and ``u <= y`` where a large ``u``
      pays (a negative cost, which writes produce when the network
      penalty is positive, or a latency row).
    * Load rows are left out at ``lambda = 1``, where ``m`` is free,
      and so are latency indicators with a zero charge.  Pins are lower
      bounds on ``y``.
    * Sites are interchangeable unless pins tell them apart, so without
      pins the site-ordering rows of ``build_mip(use_symmetry=True)``
      are added.

    Column order: ``x[t,s]`` (site fastest), ``y[a,s]``, the kept
    ``u[t,a,s]``, ``m``, then one indicator per priced write query.
    """
    n_txns = instance.transaction_count
    n_attrs = model.replica_cost.size
    n_sites = instance.site_count
    lam = float(instance.cost_weight)
    reads = model.txn_reads  # (A, T)
    cost = lam * model.coloc_cost
    load = model.coloc_load if lam < 1.0 else np.zeros_like(model.coloc_load)

    penalty = 0.0 if instance.latency_penalty is None else float(instance.latency_penalty)
    psi_cost = lam * penalty * model.write_frequencies
    kept = psi_cost > 0
    psi_cost = psi_cost[kept]
    write_access, write_txn = model.write_attr_access[:, kept], model.write_txn[kept]
    in_latency = np.zeros((n_attrs, n_txns), dtype=np.bool_)
    touched_a, touched_w = np.nonzero(write_access)
    in_latency[touched_a, write_txn[touched_w]] = True

    low = ~reads & ((cost > 0) | (load != 0))
    high = ~reads & ((cost < 0) | in_latency)
    pair_t, pair_a = np.nonzero((low | high).T)
    pair_of = np.full((n_attrs, n_txns), -1, dtype=np.int64)
    pair_of[pair_a, pair_t] = np.arange(pair_t.size)

    nx = n_txns * n_sites
    ny = n_attrs * n_sites
    u0 = nx + ny
    m_col = u0 + pair_t.size * n_sites
    psi0 = m_col + 1
    n = psi0 + psi_cost.size
    sites = np.arange(n_sites)

    c = np.zeros(n, dtype=np.float64)
    c[:nx] = np.repeat((cost * reads).sum(axis=0), n_sites)
    c[nx:u0] = np.repeat(lam * model.replica_cost, n_sites)
    c[u0:m_col] = np.repeat(cost[pair_a, pair_t], n_sites)
    c[m_col] = 1.0 - lam
    c[psi0:] = psi_cost

    rows = _Rows(n)
    _placement_rows(rows, n_txns, n_attrs, n_sites, forbid_replication)
    # Reads are served locally: y[a,s] >= x[t,s].
    read_a, read_t = np.nonzero(reads)
    local = _per_site(0, np.arange(read_a.size), n_sites)
    rows.add(local.size, [
        (local, _per_site(nx, read_a, n_sites), 1.0), (local, _per_site(0, read_t, n_sites), -1.0),
    ], 0.0, np.inf)
    # m dominates each site's local work.
    if lam < 1.0:
        rows.add(n_sites, [
            (sites, _per_site(0, np.arange(n_txns), n_sites), (load * reads).sum(axis=0)[:, None]),
            (sites, _per_site(u0, np.arange(pair_t.size), n_sites), load[pair_a, pair_t, None]),
            (sites, _per_site(nx, np.arange(n_attrs), n_sites), model.replica_load[:, None]),
            (sites, m_col, -1.0),
        ], -np.inf, 0.0)
    # The McCormick sides the objective pushes against.
    ks = np.flatnonzero(low[pair_a, pair_t])
    local = _per_site(0, np.arange(ks.size), n_sites)
    rows.add(local.size, [
        (local, _per_site(u0, ks, n_sites), 1.0),
        (local, _per_site(0, pair_t[ks], n_sites), -1.0),
        (local, _per_site(nx, pair_a[ks], n_sites), -1.0),
    ], -1.0, np.inf)
    ks = np.flatnonzero(high[pair_a, pair_t])
    local = _per_site(0, np.arange(ks.size), n_sites)
    for other in (_per_site(0, pair_t[ks], n_sites), _per_site(nx, pair_a[ks], n_sites)):
        rows.add(local.size, [(local, _per_site(u0, ks, n_sites), 1.0), (local, other, -1.0)],
                 -np.inf, 0.0)
    if not fixed_replicas and n_sites > 1:
        _symmetry_rows(rows, n_txns, n_sites)
    # A write query's indicator turns on when an updated attribute keeps
    # a replica away from the transaction's site.  A forced read's
    # product is x[t,s] itself, so x[t,s] counts the forced reads.
    pos, touched = np.nonzero(write_access.T)
    t_of = write_txn[pos]
    forced = reads[touched, t_of]
    n_writes = psi_cost.size
    rows.add(n_writes, [
        (np.arange(n_writes), psi0 + np.arange(n_writes),
         np.bincount(pos, minlength=n_writes) * float(n_sites)),
        (pos[:, None], _per_site(nx, touched, n_sites), -1.0),
        (np.arange(n_writes)[:, None], _per_site(0, write_txn, n_sites),
         np.bincount(pos[forced], minlength=n_writes)[:, None]),
        (pos[~forced, None], _per_site(u0, pair_of[touched[~forced], t_of[~forced]], n_sites), 1.0),
    ], 0.0, np.inf)

    lb = np.zeros(n)
    ub = np.ones(n)
    ub[m_col] = np.inf
    for a, s in fixed_replicas:
        lb[nx + a * n_sites + s] = 1.0
    integrality = np.zeros(n, dtype=np.int8)
    integrality[:u0] = 1
    integrality[psi0:] = 1
    matrix, row_lower, row_upper = rows.arrays()
    return {
        "c": c,
        "integrality": integrality,
        "lower": lb,
        "upper": ub,
        "matrix": matrix,
        "row_lower": row_lower,
        "row_upper": row_upper,
    }


@dataclass(frozen=True)
class _HighsRun:
    """What one HiGHS run ended with: its model status, its best column
    vector (``None`` without one), its dual bound and its node count."""

    status: HighsModelStatus
    x: Optional[np.ndarray]
    bound: float
    nodes: int


class _HighsModel:
    """The compact program, passed once to scipy's bundled HiGHS binding
    with its output off and ``gap`` as the relative gap.  Between runs
    only column bounds and the time limit change; HiGHS keeps the rest.
    """

    def __init__(self, arrays: Dict[str, object], gap: float) -> None:
        matrix = arrays["matrix"]
        n_rows, n_cols = matrix.shape
        self._highs = _Highs()
        # The binding picks a setter by the value's Python type, so the
        # double options are passed as floats.
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("mip_rel_gap", float(gap))
        status = self._highs.passModel(
            n_cols, n_rows, matrix.nnz, MatrixFormat.kRowwise, ObjSense.kMinimize, 0.0,
            arrays["c"], arrays["lower"], arrays["upper"], arrays["row_lower"], arrays["row_upper"],
            matrix.indptr, matrix.indices, matrix.data, arrays["integrality"],
        )
        if status == HighsStatus.kError:
            raise RuntimeError("HiGHS refused the compact program")

    def bound_columns(self, count: int, lower: np.ndarray, upper: np.ndarray) -> None:
        """Set the bounds of the first ``count`` columns."""
        self._highs.changeColsBounds(count, np.arange(count, dtype=np.int32), lower, upper)

    def run(self, time_limit: float, start: Optional[np.ndarray] = None) -> _HighsRun:
        """Run HiGHS for at most ``time_limit`` seconds, from the complete
        column vector ``start`` when one is given."""
        highs = self._highs
        if start is not None:
            solution = HighsSolution()
            solution.col_value = start
            highs.setSolution(solution)
        # HiGHS rejects a negative limit and keeps the last one.
        highs.setOptionValue("time_limit", max(float(time_limit), 0.0))
        # HiGHS writes some messages straight to file descriptor 1, past
        # sys.stdout and whatever its output flag says; send them to
        # standard error so the standard output stays the program's own
        # (a JSON record).
        sys.stdout.flush()
        saved_stdout = os.dup(1)
        os.dup2(2, 1)
        try:
            highs.run()
        finally:
            os.dup2(saved_stdout, 1)
            os.close(saved_stdout)
        info = highs.getInfo()
        solution = highs.getSolution()
        return _HighsRun(
            status=highs.getModelStatus(),
            x=np.asarray(solution.col_value) if solution.value_valid else None,
            bound=float(info.mip_dual_bound),
            nodes=max(int(info.mip_node_count), 0),
        )


def solve_exact(instance: Instance, config: Optional[ExactConfig] = None) -> SolveReport:
    """Solve the linearized program to a proven optimum of the weighted
    score.

    HiGHS's branch-and-cut solves, through :class:`_HighsModel`, the
    compact program (:func:`_compact_model`) of the merged model of
    :func:`_reader_classes`, in which the read attributes that the same
    transactions read are one row and each pinned attribute keeps its
    own; the optimum is the full model's.  The replica rows of each
    layout it returns are expanded to every attribute.  Every stage
    stops at the one deadline ``config.time_limit`` from the start, and
    a stage starts only while time is left:

    1. the single-site layouts, and, when nothing is pinned or disjoint,
       a short annealing run;
    2. after that run, a re-solve with the transaction homes (``x``)
       fixed through their column bounds to the annealer's, its sites
       relabelled in order of first use as the symmetry rows require;
    3. the main run, with the bounds restored and started from the
       re-solve's column vector when it has one.

    Every layout is re-priced by the definitional evaluator (the
    annealer's report carries its price already) and kept only if it
    scores lower than those before it, so an earlier stage
    wins a tie; reported objectives and scores never drift from
    ``evaluate``.  The bound gap compares that score with the main run's
    dual bound, and ``node_count`` adds up the nodes of both HiGHS runs.
    An exception of any stage reaches the caller.  Raises ``ValueError``
    when HiGHS proves that the pins admit no disjoint layout.
    """
    started = time.perf_counter()
    if config is None:
        config = ExactConfig()
    model = derive(instance)
    n_txns = instance.transaction_count
    n_attrs = instance.attribute_count
    n_sites = instance.site_count
    nx = n_txns * n_sites
    pins = _sorted_pins(config.fixed_replicas, n_attrs, n_sites)
    merged, classes = _reader_classes(model, keep=[a for a, _ in pins])
    n_classes = merged.replica_cost.size

    incumbent: Optional[Tuple[Partitioning, CostBreakdown]] = None

    def keep(part: Partitioning, breakdown: CostBreakdown) -> None:
        """Keep a priced layout if it beats the incumbent."""
        nonlocal incumbent
        if incumbent is None or breakdown.score < incumbent[1].score:
            incumbent = (part, breakdown)

    def consider(txn_site: np.ndarray, replica: np.ndarray) -> bool:
        """Price a candidate and keep it if it beats the incumbent;
        return whether it is a valid layout."""
        part = Partitioning(txn_site=txn_site, replica=replica)
        if config.forbid_replication and int(part.replica.sum(axis=1).max(initial=0)) > 1:
            return False
        try:
            breakdown = evaluate(instance, model, part)
        except InfeasibleLayoutError:
            return False
        keep(part, breakdown)
        return True

    def consider_run(run: _HighsRun) -> bool:
        """Consider the layout of a HiGHS run's column vector."""
        if run.x is None:
            return False
        return consider(
            np.argmax(run.x[:nx].reshape(n_txns, n_sites), axis=1),
            run.x[nx : nx + n_classes * n_sites].reshape(n_classes, n_sites)[classes] > 0.5,
        )

    # Cheap starting incumbents: one site carries everything (plus pins).
    for k in range(n_sites):
        replica = np.zeros((n_attrs, n_sites), dtype=np.bool_)
        replica[:, k] = True
        for a, s in pins:
            replica[a, s] = True
        consider(np.full(n_txns, k, dtype=np.int64), replica)
        if not pins:
            break  # all single-site layouts price identically without pins

    def time_left() -> float:
        return config.time_limit - (time.perf_counter() - started)

    bound = -math.inf
    node_count = 0
    proven = False  # HiGHS proved the optimum and its layout is valid
    warm: Optional[Partitioning] = None
    if not pins and not config.forbid_replication and time_left() > 0:
        warm_cfg = SaConfig(inner_loops=30, freeze_stall_loops=6, seed=0, time_limit=time_left())
        # the annealer's report already holds evaluate's price on model
        warm_report = solve_sa(instance, warm_cfg, model=model)[0]
        warm = warm_report.partitioning
        keep(warm, warm_report.breakdown)
    if time_left() > 0:
        highs = _HighsModel(
            _compact_model(
                instance,
                merged,
                forbid_replication=config.forbid_replication,
                fixed_replicas=tuple((int(classes[a]), s) for a, s in pins),
            ),
            config.gap,
        )
        start = None
        if warm is not None:
            # Site labels in order of first use, as the symmetry rows ask.
            _, first, homes = np.unique(warm.txn_site, return_index=True, return_inverse=True)
            fixed = np.zeros((n_txns, n_sites))
            fixed[np.arange(n_txns), np.argsort(np.argsort(first))[homes]] = 1.0
            highs.bound_columns(nx, fixed.ravel(), fixed.ravel())
            resolve = highs.run(time_left())
            highs.bound_columns(nx, np.zeros(nx), np.ones(nx))
            node_count += resolve.nodes
            consider_run(resolve)
            start = resolve.x
        if time_left() > 0:
            main = highs.run(time_left(), start)
            node_count += main.nodes
            proven = consider_run(main) and main.status == HighsModelStatus.kOptimal
            if math.isfinite(main.bound):
                bound = main.bound
            if main.status == HighsModelStatus.kInfeasible and incumbent is None:
                raise ValueError(f"the pins {pins} admit no layout under forbid_replication")

    wall = time.perf_counter() - started
    if incumbent is None:
        return SolveReport(
            partitioning=None,
            breakdown=None,
            bound_gap=math.inf,
            wall_time=wall,
            node_count=node_count,
            status=STATUS_NO_SOLUTION_TIME_LIMIT,
        )
    part, breakdown = incumbent
    score = breakdown.score
    gap = max(0.0, (score - bound) / max(abs(score), 1e-12))
    # Optimal when HiGHS proved its valid layout optimal, or when the
    # re-priced score is within the gap of HiGHS's dual bound (plus 1e-6
    # relative for HiGHS's own tolerances), as after a time limit that
    # came once the bound had caught up with the incumbent.  The proof
    # counts on its own because at huge folded costs (network penalties
    # from about 1e16) rounding can leave the re-priced score further
    # from the bound than the gap.
    if proven or score - bound <= max(config.gap * abs(score), 1e-6 * (1.0 + abs(score))):
        status = STATUS_OPTIMAL
        gap = min(gap, config.gap)
    else:
        status = STATUS_FEASIBLE_TIME_LIMIT
    return SolveReport(
        partitioning=part,
        breakdown=breakdown,
        bound_gap=gap,
        wall_time=wall,
        node_count=node_count,
        status=status,
    )
