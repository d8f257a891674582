"""Exact optimization: linearized integer program, file export, an
exact solver, and an exhaustive-enumeration oracle.

The quadratic placement score is linearized with one auxiliary variable
``u[t,a,s]`` per transaction/attribute/site triple, constrained by
``u <= x``, ``u <= y`` and ``u >= x + y - 1``.  The auxiliaries stay
continuous: with ``x`` and ``y`` binary those three rows pin ``u`` to
the product ``x*y``.  :func:`build_mip` keeps this full form for export.
The exact solver hands HiGHS's branch-and-cut (``scipy.optimize.milp``)
a compact form with the same optimum: auxiliaries only where a
coefficient needs them, and only the McCormick rows each coefficient's
sign needs.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from . import kernels
from .anneal import SaConfig, solve_sa
from .errors import BudgetExceededError, FormatError
from .grouping import order_transactions_by_load
from .partitioning import CostBreakdown, Partitioning, check_feasible, evaluate
from .report import (
    STATUS_FEASIBLE_TIME_LIMIT,
    STATUS_NO_SOLUTION_TIME_LIMIT,
    STATUS_OPTIMAL,
    SolveReport,
)
from .workload import CostModel, Instance, derive, subset_transactions

BINARY = "binary"
CONTINUOUS = "continuous-nonnegative"

#: Nominal layout count enumerated by :func:`brute_force` at most.
DEFAULT_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class MipVariable:
    """One column of the integer program."""

    name: str
    kind: str  # BINARY or CONTINUOUS
    objective: float
    upper: Optional[float] = None  # None = unbounded above


@dataclass(frozen=True)
class MipConstraint:
    """One row: sum(coef * var) <relation> rhs."""

    name: str
    terms: Tuple[Tuple[int, float], ...]
    relation: str  # "<=", ">=" or "="
    rhs: float


@dataclass(frozen=True)
class MipModel:
    """A minimization program over binary placement variables.

    Variable order: ``x[t,s]`` (site fastest), ``y[a,s]``, ``u[t,a,s]``,
    ``m``, then one indicator per write query when the latency term is
    modeled.  Base constraint order: assignment, coverage, read
    co-location, per-site load, linearization triples; optional
    symmetry-breaking, pinned-replica, and latency rows follow.
    """

    variables: Tuple[MipVariable, ...]
    constraints: Tuple[MipConstraint, ...]
    n_txns: int
    n_attrs: int
    n_sites: int
    has_latency: bool
    write_query_ids: Tuple[int, ...] = ()

    @property
    def variable_count(self) -> int:
        return len(self.variables)

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def x_index(self, t: int, s: int) -> int:
        return t * self.n_sites + s

    def y_index(self, a: int, s: int) -> int:
        return self.n_txns * self.n_sites + a * self.n_sites + s

    def u_index(self, t: int, a: int, s: int) -> int:
        base = (self.n_txns + self.n_attrs) * self.n_sites
        return base + (t * self.n_attrs + a) * self.n_sites + s

    @property
    def m_index(self) -> int:
        return (self.n_txns + self.n_attrs + self.n_txns * self.n_attrs) * self.n_sites

    def psi_index(self, write_pos: int) -> int:
        if not self.has_latency:
            raise ValueError("model has no latency indicators")
        return self.m_index + 1 + write_pos


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


def build_mip(
    instance: Instance,
    model: Optional[CostModel] = None,
    *,
    use_symmetry: bool = False,
    forbid_replication: bool = False,
    fixed_replicas: Sequence[Tuple[int, int]] = (),
    with_latency: Optional[bool] = None,
) -> MipModel:
    """Construct the linearized program for ``instance``.

    The base model minimizes the weighted score.  ``use_symmetry`` adds
    site-ordering rows (site ``s`` may host a transaction only after
    some earlier transaction uses site ``s-1``) — valid only while
    sites are interchangeable, so callers must leave it off when
    pinning replicas.  ``forbid_replication`` turns the coverage rows
    into equalities (each attribute on exactly one site).
    ``fixed_replicas`` pins ``y[a,s] = 1`` for the given pairs.
    ``with_latency`` defaults to whether the instance prices latency.
    """
    if model is None:
        model = derive(instance)
    n_txns = instance.transaction_count
    n_attrs = instance.attribute_count
    n_sites = instance.site_count
    lam = float(instance.cost_weight)
    if with_latency is None:
        with_latency = instance.latency_penalty is not None
    if with_latency and instance.latency_penalty is None:
        raise ValueError("latency indicators need the instance's latency penalty")

    pins = _sorted_pins(fixed_replicas, n_attrs, n_sites)

    variables: List[MipVariable] = []
    for t in range(n_txns):
        for s in range(n_sites):
            variables.append(MipVariable(f"x_{t}_{s}", BINARY, 0.0, upper=1.0))
    for a in range(n_attrs):
        for s in range(n_sites):
            variables.append(
                MipVariable(f"y_{a}_{s}", BINARY, lam * float(model.replica_cost[a]), upper=1.0)
            )
    for t in range(n_txns):
        for a in range(n_attrs):
            coef = lam * float(model.coloc_cost[a, t])
            for s in range(n_sites):
                variables.append(MipVariable(f"u_{t}_{a}_{s}", CONTINUOUS, coef, upper=None))
    variables.append(MipVariable("m", CONTINUOUS, 1.0 - lam, upper=None))

    write_query_ids: Tuple[int, ...] = ()
    if with_latency:
        write_query_ids = tuple(q.id for q in instance.queries if q.is_write)
        for q in write_query_ids:
            coef = lam * float(instance.latency_penalty) * float(model.frequencies[q])
            variables.append(MipVariable(f"psi_q{q}", BINARY, coef, upper=1.0))

    shell = MipModel(
        variables=tuple(variables),
        constraints=(),
        n_txns=n_txns,
        n_attrs=n_attrs,
        n_sites=n_sites,
        has_latency=with_latency,
        write_query_ids=write_query_ids,
    )

    constraints: List[MipConstraint] = []
    # Each transaction runs on exactly one site.
    for t in range(n_txns):
        terms = tuple((shell.x_index(t, s), 1.0) for s in range(n_sites))
        constraints.append(MipConstraint(f"assign_t{t}", terms, "=", 1.0))
    # Each attribute is stored somewhere (exactly one site when disjoint).
    cover_rel = "=" if forbid_replication else ">="
    for a in range(n_attrs):
        terms = tuple((shell.y_index(a, s), 1.0) for s in range(n_sites))
        constraints.append(MipConstraint(f"cover_a{a}", terms, cover_rel, 1.0))
    # Reads are served locally: a transaction's site holds what it reads.
    for a in range(n_attrs):
        for t in range(n_txns):
            reads = bool(model.txn_reads[a, t])
            for s in range(n_sites):
                if reads:
                    terms = ((shell.y_index(a, s), 1.0), (shell.x_index(t, s), -1.0))
                else:
                    terms = ((shell.y_index(a, s), 1.0),)
                constraints.append(MipConstraint(f"coloc_a{a}_t{t}_s{s}", terms, ">=", 0.0))
    # m dominates each site's local work.
    for s in range(n_sites):
        terms: List[Tuple[int, float]] = []
        for t in range(n_txns):
            for a in range(n_attrs):
                coef = float(model.coloc_load[a, t])
                if coef != 0.0:
                    terms.append((shell.u_index(t, a, s), coef))
        for a in range(n_attrs):
            coef = float(model.replica_load[a])
            if coef != 0.0:
                terms.append((shell.y_index(a, s), coef))
        terms.append((shell.m_index, -1.0))
        constraints.append(MipConstraint(f"load_s{s}", tuple(terms), "<=", 0.0))
    # u = x * y once x and y are binary.
    for t in range(n_txns):
        for a in range(n_attrs):
            for s in range(n_sites):
                u = shell.u_index(t, a, s)
                x = shell.x_index(t, s)
                y = shell.y_index(a, s)
                constraints.append(
                    MipConstraint(f"lin_x_t{t}_a{a}_s{s}", ((u, 1.0), (x, -1.0)), "<=", 0.0)
                )
                constraints.append(
                    MipConstraint(f"lin_y_t{t}_a{a}_s{s}", ((u, 1.0), (y, -1.0)), "<=", 0.0)
                )
                constraints.append(
                    MipConstraint(
                        f"lin_xy_t{t}_a{a}_s{s}",
                        ((u, 1.0), (x, -1.0), (y, -1.0)),
                        ">=",
                        -1.0,
                    )
                )
    # Optional: interchangeable sites are opened in order of the first
    # transaction assigned to them.
    if use_symmetry and n_sites > 1:
        for t in range(n_txns):
            for s in range(1, n_sites):
                terms = ((shell.x_index(t, s), 1.0),) + tuple(
                    (shell.x_index(tp, s - 1), -1.0) for tp in range(t)
                )
                constraints.append(MipConstraint(f"sym_t{t}_s{s}", terms, "<=", 0.0))
    # Optional: pinned replicas.
    for a, s in pins:
        constraints.append(
            MipConstraint(f"pin_a{a}_s{s}", ((shell.y_index(a, s), 1.0),), "=", 1.0)
        )
    # Optional: a write query's indicator turns on when any updated
    # attribute keeps a replica away from the transaction's site.
    if with_latency:
        big_m = float(n_attrs * n_sites)
        for pos, q in enumerate(write_query_ids):
            t = int(model.txn_of_query[q])
            touched = np.flatnonzero(model.attr_access[:, q])
            terms = [(shell.psi_index(pos), big_m)]
            for a in touched:
                a = int(a)
                for s in range(n_sites):
                    terms.append((shell.y_index(a, s), -1.0))
                    terms.append((shell.u_index(t, a, s), 1.0))
            constraints.append(MipConstraint(f"remote_q{q}", tuple(terms), ">=", 0.0))

    return replace(shell, constraints=tuple(constraints))


# ---------------------------------------------------------------------------
# Export


def _num(value: float) -> str:
    """Deterministic shortest-roundtrip literal for export files."""
    v = float(value)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    text = repr(v)
    return text


def export_model(model: MipModel, fmt: str) -> str:
    """Serialize ``model`` to free-MPS or LP text, byte-deterministically."""
    key = fmt.strip().lower()
    if key in {"mps", "free-mps", "free_mps"}:
        return _export_mps(model)
    if key in {"lp", "lp-text", "lp_text"}:
        return _export_lp(model)
    raise FormatError(f"unsupported export format: {fmt!r} (use 'free-mps' or 'lp-text')")


# Short-form alias.
export = export_model


def _export_mps(model: MipModel) -> str:
    rel_tag = {"<=": "L", ">=": "G", "=": "E"}
    lines = ["NAME vpadvisor", "OBJSENSE", "    MIN", "ROWS", " N obj"]
    for con in model.constraints:
        lines.append(f" {rel_tag[con.relation]} {con.name}")
    # Column-major entries; integer columns inside INTORG/INTEND markers.
    entries: List[List[Tuple[str, float]]] = [[] for _ in model.variables]
    for i, var in enumerate(model.variables):
        if var.objective != 0.0:
            entries[i].append(("obj", var.objective))
    for con in model.constraints:
        for idx, coef in con.terms:
            if coef != 0.0:
                entries[idx].append((con.name, coef))
    lines.append("COLUMNS")
    in_integer = False
    marker = 0
    for i, var in enumerate(model.variables):
        want_integer = var.kind == BINARY
        if want_integer and not in_integer:
            lines.append(f"    MARKER{marker} 'MARKER' 'INTORG'")
            marker += 1
            in_integer = True
        elif not want_integer and in_integer:
            lines.append(f"    MARKER{marker} 'MARKER' 'INTEND'")
            marker += 1
            in_integer = False
        for row, coef in entries[i]:
            lines.append(f"    {var.name} {row} {_num(coef)}")
    if in_integer:
        lines.append(f"    MARKER{marker} 'MARKER' 'INTEND'")
    lines.append("RHS")
    for con in model.constraints:
        if con.rhs != 0.0:
            lines.append(f"    RHS {con.name} {_num(con.rhs)}")
    lines.append("BOUNDS")
    for var in model.variables:
        if var.upper is not None:
            lines.append(f" UP BND {var.name} {_num(var.upper)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _lp_terms(terms: Sequence[Tuple[str, float]]) -> List[str]:
    """Render ``coef * name`` pairs as LP-format token groups."""
    rendered: List[str] = []
    for pos, (name, coef) in enumerate(terms):
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1.0 else f"{_num(mag)} {name}"
        if pos == 0:
            rendered.append(body if sign == "+" else f"- {body}")
        else:
            rendered.append(f"{sign} {body}")
    return rendered


def _wrap_expr(label: str, tokens: List[str], tail: str) -> List[str]:
    """Lay out one LP row, wrapping long expressions deterministically."""
    lines: List[str] = []
    current = f" {label}:"
    for tok in tokens:
        if len(current) + 1 + len(tok) > 200 and current.strip() != f"{label}:":
            lines.append(current)
            current = "   " + tok
        else:
            current = f"{current} {tok}"
    current = f"{current} {tail}" if tail else current
    lines.append(current)
    return lines


def _export_lp(model: MipModel) -> str:
    lines: List[str] = ["\\ vpadvisor linearized placement model", "Minimize"]
    obj_terms = [
        (var.name, var.objective) for var in model.variables if var.objective != 0.0
    ]
    if not obj_terms:
        obj_terms = [(model.variables[-1].name, 0.0)]
        tokens = [f"0 {obj_terms[0][0]}"]
    else:
        tokens = _lp_terms(obj_terms)
    lines.extend(_wrap_expr("obj", tokens, ""))
    lines.append("Subject To")
    rel_txt = {"<=": "<=", ">=": ">=", "=": "="}
    for con in model.constraints:
        named = [(model.variables[idx].name, coef) for idx, coef in con.terms if coef != 0.0]
        tokens = _lp_terms(named) if named else ["0 " + model.variables[0].name]
        tail = f"{rel_txt[con.relation]} {_num(con.rhs)}"
        lines.extend(_wrap_expr(con.name, tokens, tail))
    binaries = [var.name for var in model.variables if var.kind == BINARY]
    bounded = [
        var for var in model.variables if var.kind != BINARY and var.upper is not None
    ]
    if bounded:
        lines.append("Bounds")
        for var in bounded:
            lines.append(f" {var.name} <= {_num(var.upper)}")
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exact solver


@dataclass(frozen=True)
class ExactConfig:
    """Knobs for :func:`solve_exact`.

    Defaults: a 30-minute wall limit and a 0.1% relative gap.  The
    symmetry rows are used internally whenever no replicas are pinned
    (pins make sites distinguishable).  ``warm_start`` seeds the
    incumbent with a quick annealing run when the model is
    unconstrained.
    """

    time_limit: float = 1800.0
    gap: float = 1e-3
    use_symmetry: bool = True
    warm_start: bool = True
    forbid_replication: bool = False
    fixed_replicas: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.time_limit < 0:
            raise ValueError("time_limit must be nonnegative")
        if self.gap < 0:
            raise ValueError("gap must be nonnegative")


def _compact_model(
    instance: Instance,
    model: CostModel,
    *,
    use_symmetry: bool,
    forbid_replication: bool,
    fixed_replicas: Sequence[Tuple[int, int]],
) -> Dict[str, object]:
    """The solve-time program, as keyword arguments of ``milp``.

    It has the optimum of :func:`build_mip`'s program with fewer columns
    and rows, and is built straight into sparse arrays:

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

    Column order: ``x[t,s]`` (site fastest), ``y[a,s]``, the kept
    ``u[t,a,s]``, ``m``, then one indicator per priced write query.
    """
    n_txns = instance.transaction_count
    n_attrs = instance.attribute_count
    n_sites = instance.site_count
    lam = float(instance.cost_weight)
    reads = model.txn_reads  # (A, T)
    cost = lam * model.coloc_cost
    load = model.coloc_load if lam < 1.0 else np.zeros_like(model.coloc_load)

    write_ids = np.flatnonzero(model.is_write)
    penalty = 0.0 if instance.latency_penalty is None else float(instance.latency_penalty)
    psi_cost = lam * penalty * model.frequencies[write_ids]
    write_ids, psi_cost = write_ids[psi_cost > 0], psi_cost[psi_cost > 0]
    in_latency = (
        model.attr_access[:, write_ids].astype(np.int64)
        @ model.query_txn[write_ids].astype(np.int64)
    ) > 0

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
    n = psi0 + write_ids.size
    sites = np.arange(n_sites)

    def x_cols(t: np.ndarray) -> np.ndarray:
        return np.asarray(t)[:, None] * n_sites + sites

    def y_cols(a: np.ndarray) -> np.ndarray:
        return nx + np.asarray(a)[:, None] * n_sites + sites

    def u_cols(k: np.ndarray) -> np.ndarray:
        return u0 + np.asarray(k)[:, None] * n_sites + sites

    c = np.zeros(n, dtype=np.float64)
    c[:nx] = np.repeat((cost * reads).sum(axis=0), n_sites)
    c[nx:u0] = np.repeat(lam * model.replica_cost, n_sites)
    c[u0:m_col] = np.repeat(cost[pair_a, pair_t], n_sites)
    c[m_col] = 1.0 - lam
    c[psi0:] = psi_cost

    entries: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    lower: List[np.ndarray] = []
    upper: List[np.ndarray] = []
    n_rows = 0

    def emit(count: int, terms, lo: float, hi: float) -> None:
        """Append ``count`` rows ``lo <= row @ v <= hi``; each term holds
        local row indices, columns and coefficients that broadcast."""
        nonlocal n_rows
        for rows, cols, coef in terms:
            rows, cols, coef = np.broadcast_arrays(rows, cols, np.asarray(coef, dtype=np.float64))
            entries.append((n_rows + rows.ravel(), cols.ravel(), coef.ravel()))
        lower.append(np.full(count, lo))
        upper.append(np.full(count, hi))
        n_rows += count

    def per_site_rows(count: int) -> np.ndarray:
        return np.arange(count * n_sites).reshape(count, n_sites)

    # Each transaction runs on exactly one site; each attribute is stored
    # somewhere (on exactly one site when disjoint).
    emit(n_txns, [(np.arange(nx) // n_sites, np.arange(nx), 1.0)], 1.0, 1.0)
    emit(n_attrs, [(np.arange(ny) // n_sites, nx + np.arange(ny), 1.0)],
         1.0, 1.0 if forbid_replication else np.inf)
    # Reads are served locally: y[a,s] >= x[t,s].
    read_a, read_t = np.nonzero(reads)
    rows = per_site_rows(read_a.size)
    emit(rows.size, [(rows, y_cols(read_a), 1.0), (rows, x_cols(read_t), -1.0)], 0.0, np.inf)
    # m dominates each site's local work.
    if lam < 1.0:
        x_load = (load * reads).sum(axis=0)
        ts = np.flatnonzero(x_load)
        ks = np.flatnonzero(load[pair_a, pair_t])
        rs = np.flatnonzero(model.replica_load)
        emit(n_sites, [
            (sites, x_cols(ts), x_load[ts, None]),
            (sites, u_cols(ks), load[pair_a[ks], pair_t[ks], None]),
            (sites, y_cols(rs), model.replica_load[rs, None]),
            (sites, m_col, -1.0),
        ], -np.inf, 0.0)
    # The McCormick sides the objective pushes against.
    ks = np.flatnonzero(low[pair_a, pair_t])
    rows = per_site_rows(ks.size)
    emit(rows.size, [
        (rows, u_cols(ks), 1.0), (rows, x_cols(pair_t[ks]), -1.0), (rows, y_cols(pair_a[ks]), -1.0),
    ], -1.0, np.inf)
    ks = np.flatnonzero(high[pair_a, pair_t])
    rows = per_site_rows(ks.size)
    emit(rows.size, [(rows, u_cols(ks), 1.0), (rows, x_cols(pair_t[ks]), -1.0)], -np.inf, 0.0)
    emit(rows.size, [(rows, u_cols(ks), 1.0), (rows, y_cols(pair_a[ks]), -1.0)], -np.inf, 0.0)
    # Site s hosts a transaction only after an earlier one uses site s-1.
    if use_symmetry and n_sites > 1:
        rows = np.arange(n_txns * (n_sites - 1)).reshape(n_txns, n_sites - 1)
        later, earlier = np.nonzero(np.tri(n_txns, k=-1))
        emit(rows.size, [
            (rows, x_cols(np.arange(n_txns))[:, 1:], 1.0),
            (rows[later], x_cols(earlier)[:, :-1], -1.0),
        ], -np.inf, 0.0)
    # A write query's indicator turns on when an updated attribute keeps
    # a replica away from the transaction's site.
    for j, q in enumerate(write_ids):
        t = int(model.txn_of_query[q])
        touched = np.flatnonzero(model.attr_access[:, q])
        aux = pair_of[touched[~reads[touched, t]], t]
        emit(1, [
            (0, psi0 + j, float(touched.size * n_sites)),
            (0, y_cols(touched), -1.0),
            (0, x_cols([t]), float(reads[touched, t].sum())),
            (0, u_cols(aux), 1.0),
        ], 0.0, np.inf)

    rows, cols, coefs = (np.concatenate(part) for part in zip(*entries))
    keep = coefs != 0.0
    matrix = sp.csr_array((coefs[keep], (rows[keep], cols[keep])), shape=(n_rows, n))
    lb = np.zeros(n)
    ub = np.ones(n)
    ub[m_col] = np.inf
    for a, s in fixed_replicas:
        lb[nx + a * n_sites + s] = 1.0
    integrality = np.zeros(n, dtype=np.int8)
    integrality[:u0] = 1
    integrality[psi0:] = 1
    return {
        "c": c,
        "integrality": integrality,
        "bounds": Bounds(lb, ub),
        "constraints": LinearConstraint(matrix, np.concatenate(lower), np.concatenate(upper)),
    }


def solve_exact(
    instance: Instance,
    config: Optional[ExactConfig] = None,
    model: Optional[CostModel] = None,
) -> SolveReport:
    """Solve the linearized program to a proven optimum of the weighted
    score.

    HiGHS's branch-and-cut (``scipy.optimize.milp``) solves the compact
    program of :func:`_compact_model` in whatever remains of
    ``config.time_limit`` after the starting incumbents: the single-site
    layouts and, when nothing is pinned or disjoint, a short annealing
    run.  These stay as the fallback when HiGHS stops without a layout.
    Every candidate is re-priced by the definitional evaluator, so
    reported objectives and scores never drift from ``evaluate``; the
    bound gap compares that score with HiGHS's dual bound.
    """
    started = time.perf_counter()
    if config is None:
        config = ExactConfig()
    if model is None:
        model = derive(instance)
    n_txns = instance.transaction_count
    n_attrs = instance.attribute_count
    n_sites = instance.site_count
    pins = _sorted_pins(config.fixed_replicas, n_attrs, n_sites)

    incumbent: Optional[Tuple[Partitioning, CostBreakdown]] = None

    def consider(txn_site: np.ndarray, replica: np.ndarray) -> None:
        nonlocal incumbent
        part = Partitioning(
            txn_site=np.ascontiguousarray(txn_site, dtype=np.int64),
            replica=np.ascontiguousarray(replica, dtype=np.bool_),
        )
        if config.forbid_replication and int(part.replica.sum(axis=1).max(initial=0)) > 1:
            return
        if any(not part.replica[a, s] for a, s in pins):
            return
        if check_feasible(instance, model, part):
            return
        breakdown = evaluate(instance, model, part)
        if incumbent is None or breakdown.score < incumbent[1].score:
            incumbent = (part, breakdown)

    # Cheap starting incumbents: one site carries everything (plus pins).
    for k in range(n_sites):
        replica = np.zeros((n_attrs, n_sites), dtype=np.bool_)
        replica[:, k] = True
        for a, s in pins:
            replica[a, s] = True
        consider(np.full(n_txns, k, dtype=np.int64), replica)
        if not pins:
            break  # all single-site layouts price identically without pins
    if config.warm_start and not pins and not config.forbid_replication:
        warm_cfg = SaConfig(inner_loops=30, freeze_stall_loops=6, seed=0)
        warm_report, _ = solve_sa(instance, warm_cfg, model=model)
        consider(warm_report.partitioning.txn_site, warm_report.partitioning.replica)

    def time_left() -> float:
        return config.time_limit - (time.perf_counter() - started)

    bound = -math.inf
    node_count = 0
    if time_left() > 0:
        arrays = _compact_model(
            instance,
            model,
            use_symmetry=config.use_symmetry and not pins,
            forbid_replication=config.forbid_replication,
            fixed_replicas=pins,
        )
        limit = time_left()
        if limit > 0:
            res = milp(**arrays, options={"time_limit": limit, "mip_rel_gap": config.gap})
            node_count = int(res.mip_node_count or 0)
            if res.x is not None:
                nx = n_txns * n_sites
                consider(
                    np.argmax(res.x[:nx].reshape(n_txns, n_sites), axis=1),
                    res.x[nx : nx + n_attrs * n_sites].reshape(n_attrs, n_sites) > 0.5,
                )
            if res.mip_dual_bound is not None and math.isfinite(res.mip_dual_bound):
                bound = float(res.mip_dual_bound)

    wall = time.perf_counter() - started
    if incumbent is None:
        return SolveReport(
            partitioning=None,
            objective=math.nan,
            score=math.nan,
            bound_gap=math.inf,
            wall_time=wall,
            node_count=node_count,
            status=STATUS_NO_SOLUTION_TIME_LIMIT,
        )
    part, breakdown = incumbent
    score = breakdown.score
    gap = max(0.0, (score - bound) / max(abs(score), 1e-12))
    # The status follows the proof, not HiGHS's stop reason: optimal when
    # the re-priced score is within the gap of HiGHS's dual bound (plus
    # 1e-6 relative for HiGHS's own tolerances), as after a time limit
    # that came once the bound had caught up with the incumbent.
    if score - bound <= max(config.gap * abs(score), 1e-6 * (1.0 + abs(score))):
        status = STATUS_OPTIMAL
        gap = min(gap, config.gap)
    else:
        status = STATUS_FEASIBLE_TIME_LIMIT
    return SolveReport(
        partitioning=part,
        objective=breakdown.objective,
        score=score,
        bound_gap=gap,
        wall_time=wall,
        node_count=node_count,
        status=status,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracle


@dataclass(frozen=True)
class BruteResult:
    """Outcome of exhaustive enumeration."""

    partitioning: Partitioning
    objective: float
    score: float
    combinations: int  # nominal layouts in the search space


def enumeration_size(instance: Instance, forbid_replication: bool = False) -> int:
    """Nominal layout count |S|^|T| * (2^|S|-1)^|A| (|S|^|A| if disjoint)."""
    s, t, a = instance.site_count, instance.transaction_count, instance.attribute_count
    per_attr = s if forbid_replication else (2**s - 1)
    return s**t * per_attr**a


def brute_force(
    instance: Instance,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    forbid_replication: bool = False,
    model: Optional[CostModel] = None,
) -> BruteResult:
    """Enumerate every layout and return the lexicographically first
    minimizer of the weighted score.

    Refuses instances whose nominal search space exceeds ``budget``.
    """
    size = enumeration_size(instance, forbid_replication)
    if size > budget:
        raise BudgetExceededError(
            f"enumeration would visit {size} layouts, over the budget of {budget}"
        )
    if model is None:
        model = derive(instance)
    if instance.latency_penalty is not None:
        write_ids = [q.id for q in instance.queries if q.is_write]
        write_attr = np.ascontiguousarray(model.attr_access[:, write_ids], dtype=np.bool_)
        write_txn = np.asarray([model.txn_of_query[q] for q in write_ids], dtype=np.int64)
        write_freq = np.asarray([model.frequencies[q] for q in write_ids], dtype=np.float64)
        found, _, best_x, best_mask = kernels.enumerate_layouts_latency_numpy(
            model.coloc_cost,
            model.replica_cost,
            model.coloc_load,
            model.replica_load,
            model.txn_reads,
            float(instance.cost_weight),
            instance.site_count,
            forbid_replication,
            write_attr,
            write_txn,
            write_freq,
            float(instance.latency_penalty),
        )
    else:
        found, _, best_x, best_mask = kernels.enumerate_layouts(
            model.coloc_cost,
            model.replica_cost,
            model.coloc_load,
            model.replica_load,
            model.txn_reads,
            float(instance.cost_weight),
            instance.site_count,
            forbid_replication,
        )
    if not found:
        raise BudgetExceededError("enumeration found no feasible layout")
    replica = np.zeros((instance.attribute_count, instance.site_count), dtype=np.bool_)
    for a in range(instance.attribute_count):
        mask = int(best_mask[a])
        for s in range(instance.site_count):
            replica[a, s] = bool(mask & (1 << s))
    part = Partitioning(
        txn_site=np.asarray(best_x, dtype=np.int64), replica=replica
    )
    breakdown = evaluate(instance, model, part)
    return BruteResult(
        partitioning=part,
        objective=breakdown.objective,
        score=breakdown.score,
        combinations=size,
    )


# ---------------------------------------------------------------------------
# Workload-prioritized staged solve


def solve_exact_staged(
    instance: Instance,
    config: Optional[ExactConfig] = None,
    top_fraction: float = 0.2,
) -> SolveReport:
    """Two-stage solve: optimize the heaviest transactions first, keep
    their replicas as pinned lower bounds, then solve the full workload.

    The heavy subset is the top ``top_fraction`` of transactions by
    total read weight (at least one).  The final report prices the full
    instance; optimality holds only relative to the pinned replicas.
    ``config.time_limit`` bounds both stages together.
    """
    started = time.perf_counter()
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must lie in (0, 1]")
    if config is None:
        config = ExactConfig()
    model = derive(instance)
    order = order_transactions_by_load(instance, model)
    keep = max(1, math.ceil(top_fraction * instance.transaction_count))
    heavy = [int(t) for t in order[:keep]]
    if len(heavy) == instance.transaction_count:
        return solve_exact(instance, config, model=model)
    stage_one = solve_exact(subset_transactions(instance, heavy), config)
    config = replace(config, time_limit=max(0.0, config.time_limit - (time.perf_counter() - started)))
    if stage_one.partitioning is not None:
        pinned = tuple(
            (a, s)
            for a in range(instance.attribute_count)
            for s in range(instance.site_count)
            if stage_one.partitioning.replica[a, s]
        )
        config = replace(
            config, fixed_replicas=tuple(sorted(set(config.fixed_replicas) | set(pinned)))
        )
    final = solve_exact(instance, config, model=model)
    return replace(final, wall_time=time.perf_counter() - started)
