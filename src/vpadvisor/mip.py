"""Exact optimization: linearized integer program, file export and an
exact solver.

The quadratic placement score is linearized with one auxiliary variable
``u[t,a,s]`` per transaction/attribute/site triple, constrained by
``u <= x``, ``u <= y`` and ``u >= x + y - 1``.  The auxiliaries stay
continuous: with ``x`` and ``y`` binary those three rows pin ``u`` to
the product ``x*y``.  :func:`build_mip` keeps this full form for export.
The exact solver hands HiGHS's branch-and-cut (``scipy.optimize.milp``)
a compact form with the same optimum: auxiliaries only where a
coefficient needs them, and only the McCormick rows each coefficient's
sign needs.  Both forms are built block by block into sparse arrays by
one row builder, :class:`_Rows`.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from .anneal import SaConfig, solve_sa
from .errors import FormatError, InfeasibleLayoutError
from .partitioning import CostBreakdown, Partitioning, evaluate
from .report import (
    STATUS_FEASIBLE_TIME_LIMIT,
    STATUS_NO_SOLUTION_TIME_LIMIT,
    STATUS_OPTIMAL,
    SolveReport,
)
from .workload import CostModel, Instance, derive


@dataclass(frozen=True, eq=False)
class MipModel:
    """The program ``min c @ v`` subject to ``lower <= v <= upper``,
    ``row_lower <= matrix @ v <= row_upper`` and ``v[j]`` integral where
    ``integrality[j]`` is 1 (those columns are binary).

    Column order: ``x[t,s]`` (site fastest), ``y[a,s]``, ``u[t,a,s]``,
    ``m``, then one indicator per write query when the latency term is
    modeled.  Base row order: assignment, coverage, read co-location,
    per-site load, linearization triples; the symmetry-breaking rows
    (when ``symmetry``), one row per pin of ``pins`` and the latency
    rows follow.  :meth:`column_names` and :meth:`row_names` format the
    names export writes from this layout on each call.
    """

    c: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    matrix: sp.csr_array
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_txns: int
    n_attrs: int
    n_sites: int
    has_latency: bool
    write_query_ids: Tuple[int, ...] = ()
    symmetry: bool = False
    pins: Tuple[Tuple[int, int], ...] = ()

    @property
    def variable_count(self) -> int:
        return self.c.size

    @property
    def constraint_count(self) -> int:
        return self.matrix.shape[0]

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

    def _labels(self) -> Tuple[List[str], List[str], List[str]]:
        """The transaction, attribute and site ids as strings."""
        return tuple([str(i) for i in range(n)] for n in (self.n_txns, self.n_attrs, self.n_sites))

    def column_names(self) -> List[str]:
        """Names in column order: ``x_{t}_{s}``, ``y_{a}_{s}``,
        ``u_{t}_{a}_{s}``, ``m`` and ``psi_q{query}``."""
        txns, attrs, sites = self._labels()
        return (
            [f"x_{t}_{s}" for t in txns for s in sites]
            + [f"y_{a}_{s}" for a in attrs for s in sites]
            + [f"u_{t}_{a}_{s}" for t in txns for a in attrs for s in sites]
            + ["m"]
            + [f"psi_q{q}" for q in self.write_query_ids]
        )

    def row_names(self) -> List[str]:
        """Names in row order, one block per kind of row."""
        txns, attrs, sites = self._labels()
        return (
            [f"assign_t{t}" for t in txns]
            + [f"cover_a{a}" for a in attrs]
            + [f"coloc_a{a}_t{t}_s{s}" for a in attrs for t in txns for s in sites]
            + [f"load_s{s}" for s in sites]
            + [
                f"lin_{side}_t{t}_a{a}_s{s}"
                for t in txns for a in attrs for s in sites for side in ("x", "y", "xy")
            ]
            + ([f"sym_t{t}_s{s}" for t in txns for s in sites[1:]] if self.symmetry else [])
            + [f"pin_a{a}_s{s}" for a, s in self.pins]
            + [f"remote_q{q}" for q in self.write_query_ids]
        )


class _Rows:
    """Constraint rows ``lower <= row @ v <= upper``, collected block by
    block as sparse triples."""

    def __init__(self) -> None:
        self.count = 0
        self._entries: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._bounds: List[Tuple[np.ndarray, np.ndarray]] = []

    def add(self, count: int, terms, lo, hi) -> None:
        """Append ``count`` rows.  Each term holds row indices local to
        the block, columns and coefficients, which broadcast together;
        ``lo`` and ``hi`` are scalars or one value per row.  Only the
        nonzero entries are kept."""
        for rows, cols, coef in terms:
            rows, cols, coef = np.broadcast_arrays(rows, cols, np.asarray(coef, dtype=np.float64))
            keep = coef != 0.0
            self._entries.append((self.count + rows[keep], cols[keep], coef[keep]))
        lo, hi = (np.broadcast_to(np.asarray(b, dtype=np.float64), count) for b in (lo, hi))
        self._bounds.append((lo, hi))
        self.count += count

    def arrays(self, n_cols: int) -> Tuple[sp.csr_array, np.ndarray, np.ndarray]:
        """The matrix and the row bounds."""
        rows, cols, coefs = (np.concatenate(part) for part in zip(*self._entries))
        matrix = sp.csr_array((coefs, (rows, cols)), shape=(self.count, n_cols))
        lower, upper = (np.concatenate(part) for part in zip(*self._bounds))
        return matrix, lower, upper


def _per_site(base: int, ids, n_sites: int) -> np.ndarray:
    """Indices ``base + id * n_sites + s``, one row per id."""
    return base + np.asarray(ids, dtype=np.int64)[:, None] * n_sites + np.arange(n_sites)


def _placement_rows(
    rows: _Rows, n_txns: int, n_attrs: int, n_sites: int, forbid_replication: bool
) -> None:
    """Each transaction runs on exactly one site; each attribute is
    stored somewhere (on exactly one site when disjoint).  Columns
    ``x[t,s]`` come first, ``y[a,s]`` right after them."""
    nx, ny = n_txns * n_sites, n_attrs * n_sites
    rows.add(n_txns, [(np.arange(nx) // n_sites, np.arange(nx), 1.0)], 1.0, 1.0)
    rows.add(n_attrs, [(np.arange(ny) // n_sites, nx + np.arange(ny), 1.0)],
             1.0, 1.0 if forbid_replication else np.inf)


def _symmetry_rows(rows: _Rows, n_txns: int, n_sites: int) -> None:
    """Interchangeable sites are opened in order: site ``s`` hosts
    transaction ``t`` only after an earlier transaction uses ``s-1``."""
    local = np.arange(n_txns * (n_sites - 1)).reshape(n_txns, n_sites - 1)
    later, earlier = np.nonzero(np.tri(n_txns, k=-1))
    x = _per_site(0, np.arange(n_txns), n_sites)
    rows.add(local.size, [(local, x[:, 1:], 1.0), (local[later], x[earlier, :-1], -1.0)],
             -np.inf, 0.0)


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
) -> MipModel:
    """Construct the linearized program for ``instance``.

    The base model minimizes the weighted score.  ``use_symmetry`` adds
    site-ordering rows (site ``s`` may host a transaction only after
    some earlier transaction uses site ``s-1``) — valid only while
    sites are interchangeable, so callers must leave it off when
    pinning replicas.  ``forbid_replication`` turns the coverage rows
    into equalities (each attribute on exactly one site).
    ``fixed_replicas`` pins ``y[a,s] = 1`` for the given pairs.  The
    latency indicators and rows are there when the instance prices
    latency.
    """
    if model is None:
        model = derive(instance)
    n_txns = instance.transaction_count
    n_attrs = instance.attribute_count
    n_sites = instance.site_count
    lam = float(instance.cost_weight)
    has_latency = instance.latency_penalty is not None
    pins = _sorted_pins(fixed_replicas, n_attrs, n_sites)
    priced = slice(None) if has_latency else slice(0)  # the write queries with indicators
    write_ids = model.write_queries[priced]

    nx = n_txns * n_sites
    u0 = nx + n_attrs * n_sites
    m_col = u0 + n_txns * n_attrs * n_sites
    psi0 = m_col + 1
    n = psi0 + write_ids.size
    txns, attrs, sites = np.arange(n_txns), np.arange(n_attrs), np.arange(n_sites)

    c = np.zeros(n)
    c[nx:u0] = np.repeat(lam * model.replica_cost, n_sites)
    c[u0:m_col] = np.repeat(lam * model.coloc_cost.T.ravel(), n_sites)
    c[m_col] = 1.0 - lam
    if has_latency:
        c[psi0:] = lam * float(instance.latency_penalty) * model.write_frequencies
    integrality = np.zeros(n, dtype=np.int8)
    integrality[:u0] = 1
    integrality[psi0:] = 1

    rows = _Rows()
    _placement_rows(rows, n_txns, n_attrs, n_sites, forbid_replication)
    # Reads are served locally: a transaction's site holds what it reads
    # (y[a,s] >= x[t,s]; a bare y[a,s] >= 0 where t does not read a).
    x = _per_site(0, txns, n_sites)
    y = _per_site(nx, attrs, n_sites)
    local = np.arange(n_attrs * n_txns * n_sites).reshape(n_attrs, n_txns, n_sites)
    rows.add(local.size, [
        (local, y[:, None, :], 1.0),
        (local, x[None, :, :], -model.txn_reads[:, :, None].astype(np.float64)),
    ], 0.0, np.inf)
    # m dominates each site's local work.
    rows.add(n_sites, [
        (sites, _per_site(u0, np.arange(n_txns * n_attrs), n_sites),
         model.coloc_load.T.reshape(-1, 1)),
        (sites, y, model.replica_load[:, None]),
        (sites, m_col, -1.0),
    ], -np.inf, 0.0)
    # u = x * y once x and y are binary: u <= x, u <= y, u >= x + y - 1.
    u = u0 + np.arange(n_txns * n_attrs * n_sites).reshape(n_txns, n_attrs, n_sites)
    first = 3 * (u - u0)
    xt, ya = x[:, None, :], y[None, :, :]
    rows.add(3 * u.size, [
        (first, u, 1.0), (first, xt, -1.0),
        (first + 1, u, 1.0), (first + 1, ya, -1.0),
        (first + 2, u, 1.0), (first + 2, xt, -1.0), (first + 2, ya, -1.0),
    ], np.tile([-np.inf, -np.inf, -1.0], u.size), np.tile([0.0, 0.0, np.inf], u.size))
    symmetry = use_symmetry and n_sites > 1
    if symmetry:
        _symmetry_rows(rows, n_txns, n_sites)
    pin_cols = nx + np.array(pins, dtype=np.int64).reshape(-1, 2) @ np.array([n_sites, 1])
    rows.add(len(pins), [(np.arange(len(pins)), pin_cols, 1.0)], 1.0, 1.0)
    # A write query's indicator turns on when any updated attribute keeps
    # a replica away from the transaction's site (no rows without latency).
    pos, touched = np.nonzero(model.write_attr_access[:, priced].T)
    t_of = model.write_txn[pos]
    rows.add(write_ids.size, [
        (np.arange(write_ids.size), psi0 + np.arange(write_ids.size), float(n_attrs * n_sites)),
        (pos[:, None], _per_site(nx, touched, n_sites), -1.0),
        (pos[:, None], _per_site(u0, t_of * n_attrs + touched, n_sites), 1.0),
    ], 0.0, np.inf)

    matrix, row_lower, row_upper = rows.arrays(n)
    return MipModel(
        c=c,
        integrality=integrality,
        lower=np.zeros(n),
        upper=np.where(integrality == 1, 1.0, np.inf),
        matrix=matrix,
        row_lower=row_lower,
        row_upper=row_upper,
        n_txns=n_txns,
        n_attrs=n_attrs,
        n_sites=n_sites,
        has_latency=has_latency,
        write_query_ids=tuple(int(q) for q in write_ids),
        symmetry=symmetry,
        pins=tuple(pins),
    )


# ---------------------------------------------------------------------------
# Export

#: Most lines :func:`export_model` hands to one ``write`` call.
EXPORT_CHUNK_LINES = 1 << 15


def _num(value: float) -> str:
    """Deterministic shortest-roundtrip literal for export files."""
    v = float(value)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _num_texts(values: np.ndarray) -> List[str]:
    """:func:`_num` of every value, formatting each distinct value once."""
    distinct, which = np.unique(values, return_inverse=True)
    texts = [_num(v) for v in distinct.tolist()]
    return [texts[k] for k in which.tolist()]


def export_model(model: MipModel, fmt: str, fh: TextIO) -> None:
    """Write ``model`` to ``fh`` as free-MPS (``fmt`` ``"free-mps"`` or
    ``"mps"``) or LP text (``"lp-text"`` or ``"lp"``),
    byte-deterministically.  ``fmt`` is matched ignoring case and
    surrounding blanks.

    Lines are formatted as they are written, at most
    :data:`EXPORT_CHUNK_LINES` per ``fh.write`` call, so the whole text
    is never held in memory.
    """
    key = fmt.strip().lower()
    if key in {"mps", "free-mps"}:
        lines = _mps_lines(model)
    elif key in {"lp", "lp-text"}:
        lines = _lp_lines(model)
    else:
        raise FormatError(f"unsupported export format: {fmt!r} (use 'free-mps' or 'lp-text')")
    while True:
        chunk = list(islice(lines, EXPORT_CHUNK_LINES))
        if not chunk:
            return
        chunk.append("")  # every line ends in a newline
        fh.write("\n".join(chunk))


def _row_blocks(model: MipModel) -> Iterator[Tuple[int, List[str], np.ndarray]]:
    """Rows in blocks of :data:`EXPORT_CHUNK_LINES`: the block's first
    row, each row's relation (``E``, ``L`` or ``G``) and right-hand
    side; the model has no ranged rows."""
    for start in range(0, model.constraint_count, EXPORT_CHUNK_LINES):
        lo = model.row_lower[start : start + EXPORT_CHUNK_LINES]
        hi = model.row_upper[start : start + EXPORT_CHUNK_LINES]
        senses = np.where(lo == hi, "E", np.where(np.isinf(lo), "L", "G"))
        yield start, senses.tolist(), np.where(np.isinf(lo), hi, lo)


def _column_blocks(starts: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive column ranges ``[first, last)`` of a CSC matrix with
    at most :data:`EXPORT_CHUNK_LINES` entries each, unless one column
    alone holds more."""
    n = starts.size - 1
    first = 0
    while first < n:
        last = int(np.searchsorted(starts, starts[first] + EXPORT_CHUNK_LINES, side="right")) - 1
        last = min(max(last, first + 1), n)
        yield first, last
        first = last


def _mps_lines(model: MipModel) -> Iterator[str]:
    row_names = model.row_names()
    column_names = model.column_names()
    yield from ("NAME vpadvisor", "OBJSENSE", "    MIN", "ROWS", " N obj")
    for start, senses, _ in _row_blocks(model):
        names = row_names[start : start + len(senses)]
        yield from [f" {sense} {name}" for sense, name in zip(senses, names)]
    # Column-major entries, each column's in row order; integer columns
    # inside INTORG/INTEND markers.
    yield "COLUMNS"
    by_column = model.matrix.tocsc()
    by_column.sort_indices()
    starts = by_column.indptr
    integer = model.integrality.tolist()
    objective = model.c.tolist()
    in_integer = False
    marker = 0
    for first, last in _column_blocks(starts):
        entries = slice(starts[first], starts[last])
        rows_of = by_column.indices[entries].tolist()
        coef_texts = _num_texts(by_column.data[entries])
        ends = (starts[first + 1 : last + 1] - starts[first]).tolist()
        k = 0
        for j, end in zip(range(first, last), ends):
            if bool(integer[j]) != in_integer:
                yield f"    MARKER{marker} 'MARKER' '{'INTEND' if in_integer else 'INTORG'}'"
                marker += 1
                in_integer = not in_integer
            name = column_names[j]
            if objective[j] != 0.0:
                yield f"    {name} obj {_num(objective[j])}"
            yield from [
                f"    {name} {row_names[r]} {text}"
                for r, text in zip(rows_of[k:end], coef_texts[k:end])
            ]
            k = end
    if in_integer:
        yield f"    MARKER{marker} 'MARKER' 'INTEND'"
    yield "RHS"
    for start, _, rhs in _row_blocks(model):
        nonzero = np.flatnonzero(rhs)
        texts = _num_texts(rhs[nonzero])
        yield from [
            f"    RHS {row_names[start + i]} {text}" for i, text in zip(nonzero.tolist(), texts)
        ]
    yield "BOUNDS"
    finite = np.flatnonzero(np.isfinite(model.upper))
    texts = _num_texts(model.upper[finite])
    yield from [f" UP BND {column_names[j]} {text}" for j, text in zip(finite.tolist(), texts)]
    yield "ENDATA"


def _lp_terms(coefs: np.ndarray, cols: np.ndarray, opens: np.ndarray,
              names: Sequence[str]) -> List[str]:
    """LP tokens ``[sign] [magnitude] name`` of matrix entries: a unit
    magnitude is left out, and so is the ``+`` of an entry that opens
    its expression (``opens``)."""
    distinct, which = np.unique(coefs, return_inverse=True)
    values = distinct.tolist()
    magnitudes = ["" if abs(v) == 1.0 else f"{_num(abs(v))} " for v in values]
    inner = [("- " if v < 0 else "+ ") + m for v, m in zip(values, magnitudes)]
    leading = [("- " if v < 0 else "") + m for v, m in zip(values, magnitudes)]
    prefixes = inner + leading
    which = which + opens * len(values)
    return [prefixes[k] + names[c] for k, c in zip(which.tolist(), cols.tolist())]


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


def _lp_lines(model: MipModel) -> Iterator[str]:
    """LP text; each row lists its terms in column order."""
    names = model.column_names()
    yield from ("\\ vpadvisor linearized placement model", "Minimize")
    obj = np.flatnonzero(model.c)
    if obj.size:
        opens = np.arange(obj.size) == 0
        tokens = _lp_terms(model.c[obj], obj, opens, names)
    else:
        tokens = [f"0 {names[-1]}"]
    yield from _wrap_expr("obj", tokens, "")
    yield "Subject To"
    row_names = model.row_names()
    rel_txt = {"E": "=", "L": "<=", "G": ">="}
    by_row = model.matrix
    for start, senses, rhs in _row_blocks(model):
        starts = by_row.indptr[start : start + len(senses) + 1]
        entries = slice(starts[0], starts[-1])
        opens = np.zeros(starts[-1] - starts[0], dtype=np.bool_)
        opens[starts[:-1][np.diff(starts) > 0] - starts[0]] = True  # each row's first entry
        tokens = _lp_terms(by_row.data[entries], by_row.indices[entries], opens, names)
        tails = [f"{rel_txt[sense]} {text}" for sense, text in zip(senses, _num_texts(rhs))]
        bounds = (starts - starts[0]).tolist()
        labels = row_names[start : start + len(senses)]
        for label, lo, hi, tail in zip(labels, bounds, bounds[1:], tails):
            row = tokens[lo:hi] or ["0 " + names[0]]
            line = f" {label}: {' '.join(row)}"
            if len(line) <= 200:  # then _wrap_expr would not wrap
                yield f"{line} {tail}"
            else:
                yield from _wrap_expr(label, row, tail)
    integer = model.integrality.tolist()
    bounds = [
        f" {name} <= {_num(up)}"
        for name, k, up in zip(names, integer, model.upper.tolist())
        if not k and math.isfinite(up)
    ]
    if bounds:
        yield "Bounds"
        yield from bounds
    binaries = [f" {name}" for name, k in zip(names, integer) if k]
    if binaries:
        yield "Binary"
        yield from binaries
    yield "End"


# ---------------------------------------------------------------------------
# Exact solver


@dataclass(frozen=True)
class ExactConfig:
    """Knobs for :func:`solve_exact`.

    Defaults: a 30-minute wall limit and a 0.1% relative gap.  The
    symmetry rows are used whenever no replicas are pinned (pins make
    sites distinguishable).  When nothing is pinned or disjoint, a quick
    annealing run seeds the incumbent within the time limit.
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
    and rows:

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

    rows = _Rows()
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
    if use_symmetry and n_sites > 1:
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
    return {
        "c": c,
        "integrality": integrality,
        "bounds": Bounds(lb, ub),
        "constraints": LinearConstraint(*rows.arrays(n)),
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
    run that shares the time limit.  These stay as the fallback when
    HiGHS stops without a layout.
    Every candidate is re-priced by the definitional evaluator, so
    reported objectives and scores never drift from ``evaluate``; the
    bound gap compares that score with HiGHS's dual bound.  Raises
    ``ValueError`` when HiGHS proves that the pins admit no disjoint layout.
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

    def consider(txn_site: np.ndarray, replica: np.ndarray) -> bool:
        """Price a candidate and keep it if it beats the incumbent;
        return whether it is a valid layout."""
        nonlocal incumbent
        part = Partitioning(txn_site=txn_site, replica=replica)
        if config.forbid_replication and int(part.replica.sum(axis=1).max(initial=0)) > 1:
            return False
        try:
            breakdown = evaluate(instance, model, part)
        except InfeasibleLayoutError:
            return False
        if incumbent is None or breakdown.score < incumbent[1].score:
            incumbent = (part, breakdown)
        return True

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

    if not pins and not config.forbid_replication and time_left() > 0:
        warm_cfg = SaConfig(inner_loops=30, freeze_stall_loops=6, seed=0, time_limit=time_left())
        warm_report, _ = solve_sa(instance, warm_cfg, model=model)
        consider(warm_report.partitioning.txn_site, warm_report.partitioning.replica)

    bound = -math.inf
    node_count = 0
    proven = False  # HiGHS proved the optimum and its layout is valid
    if time_left() > 0:
        arrays = _compact_model(
            instance,
            model,
            use_symmetry=not pins,
            forbid_replication=config.forbid_replication,
            fixed_replicas=pins,
        )
        limit = time_left()
        if limit > 0:
            # HiGHS writes some messages straight to file descriptor 1,
            # past sys.stdout; send them to standard error so the
            # standard output stays the program's own (a JSON record).
            sys.stdout.flush()
            saved_stdout = os.dup(1)
            os.dup2(2, 1)
            try:
                res = milp(**arrays, options={"time_limit": limit, "mip_rel_gap": config.gap})
            finally:
                os.dup2(saved_stdout, 1)
                os.close(saved_stdout)
            node_count = int(res.mip_node_count or 0)
            if res.x is not None:
                nx = n_txns * n_sites
                valid = consider(
                    np.argmax(res.x[:nx].reshape(n_txns, n_sites), axis=1),
                    res.x[nx : nx + n_attrs * n_sites].reshape(n_attrs, n_sites) > 0.5,
                )
                proven = valid and res.status == 0
            if res.mip_dual_bound is not None and math.isfinite(res.mip_dual_bound):
                bound = float(res.mip_dual_bound)
            if res.status == 2 and incumbent is None:
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
