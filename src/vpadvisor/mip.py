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

:func:`export_model` writes the full form as free-MPS or LP text,
byte-deterministically and at most :data:`EXPORT_CHUNK_LINES` lines per
``write``, never holding the whole text.  Every free-MPS line and every
piece of an LP expression is a fixed sequence of fields, so both writers
render a window of lines as a numpy byte block: one fixed-width ``S``
array per field, laid side by side and stripped of its NUL padding.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

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
    """The program ``min c @ v`` subject to ``0 <= v <= upper``,
    ``row_lower <= matrix @ v <= row_upper`` and ``v[j]`` integral where
    ``integrality[j]`` is 1.  Those columns are binary; the others (the
    auxiliaries ``u`` and ``m``) are unbounded above, so ``upper``
    follows from ``integrality`` and is not stored.

    Column order: ``x[t,s]`` (site fastest), ``y[a,s]``, ``u[t,a,s]``,
    ``m``, then one indicator per write query when the latency term is
    modeled.  Base row order: assignment, coverage, read co-location,
    per-site load, linearization triples; the symmetry-breaking rows
    (when ``symmetry``), one row per pin of ``pins`` and the latency
    rows follow.  The model stores no names: :meth:`column_names` and
    :meth:`row_names` format them from this layout on each call, decoded
    from the fixed-width byte arrays (``_column_labels``, ``_row_labels``)
    that both export writers lay into their lines.
    """

    c: np.ndarray
    integrality: np.ndarray
    matrix: sp.csr_array
    row_lower: np.ndarray
    row_upper: np.ndarray
    n_txns: int
    n_attrs: int
    n_sites: int
    write_query_ids: Tuple[int, ...] = ()
    symmetry: bool = False
    pins: Tuple[Tuple[int, int], ...] = ()

    @property
    def upper(self) -> np.ndarray:
        """Column upper bounds: 1 on binary columns, ``inf`` elsewhere."""
        return np.where(self.integrality == 1, 1.0, np.inf)

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
        if not 0 <= write_pos < len(self.write_query_ids):
            raise ValueError(f"model has no latency indicator {write_pos}")
        return self.m_index + 1 + write_pos

    def _column_labels(self) -> np.ndarray:
        """:meth:`column_names` as one fixed-width ``S`` array."""
        t, a, s = (_ids(np.arange(n)) for n in (self.n_txns, self.n_attrs, self.n_sites))
        return np.concatenate([
            _join(b"x_", t[:, None], b"_", s),
            _join(b"y_", a[:, None], b"_", s),
            _join(b"u_", t[:, None, None], b"_", a[:, None], b"_", s),
            np.array([b"m"]),
            _join(b"psi_q", _ids(self.write_query_ids)),
        ])

    def _row_labels(self) -> np.ndarray:
        """:meth:`row_names` as one fixed-width ``S`` array."""
        t, a, s = (_ids(np.arange(n)) for n in (self.n_txns, self.n_attrs, self.n_sites))
        side = np.array([b"x", b"y", b"xy"])
        pins = np.array(self.pins, dtype=np.int64).reshape(-1, 2)
        return np.concatenate([
            _join(b"assign_t", t),
            _join(b"cover_a", a),
            _join(b"coloc_a", a[:, None, None], b"_t", t[:, None], b"_s", s),
            _join(b"load_s", s),
            _join(b"lin_", side, b"_t", t[:, None, None, None], b"_a", a[:, None, None],
                  b"_s", s[:, None]),
            _join(b"sym_t", t[:, None], b"_s", s[1:] if self.symmetry else s[:0]),
            _join(b"pin_a", _ids(pins[:, 0]), b"_s", _ids(pins[:, 1])),
            _join(b"remote_q", _ids(self.write_query_ids)),
        ])

    def column_names(self) -> List[str]:
        """Names in column order: ``x_{t}_{s}``, ``y_{a}_{s}``,
        ``u_{t}_{a}_{s}``, ``m`` and ``psi_q{query}``."""
        return _lines(self._column_labels(), b"\n").splitlines()

    def row_names(self) -> List[str]:
        """Names in row order, one block per kind of row:
        ``assign_t{t}``, ``cover_a{a}``, ``coloc_a{a}_t{t}_s{s}``,
        ``load_s{s}``, ``lin_{x|y|xy}_t{t}_a{a}_s{s}``, ``sym_t{t}_s{s}``,
        ``pin_a{a}_s{s}`` and ``remote_q{query}``."""
        return _lines(self._row_labels(), b"\n").splitlines()


def _trimmed(texts: np.ndarray) -> np.ndarray:
    """``texts`` as an ``S`` array as wide as its longest entry."""
    return texts.astype(f"S{max(1, int(np.strings.str_len(texts).max(initial=0)))}")


def _ids(values) -> np.ndarray:
    """Integers as decimal ``S`` texts."""
    return _trimmed(np.asarray(values, dtype=np.int64).astype("S"))


def _join(*parts) -> np.ndarray:
    """Byte strings and ``S`` arrays concatenated entry by entry under
    broadcasting, flattened in C order."""
    return _trimmed(reduce(np.strings.add, parts).ravel())


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
        matrix=matrix,
        row_lower=row_lower,
        row_upper=row_upper,
        n_txns=n_txns,
        n_attrs=n_attrs,
        n_sites=n_sites,
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


def _texts(values: np.ndarray) -> np.ndarray:
    """:func:`_num` of every value as an ``S`` array, formatting each
    distinct value once."""
    distinct, which = np.unique(values, return_inverse=True)
    return np.array([_num(v) for v in distinct.tolist()], dtype="S")[which]


def _relations(model: MipModel) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's relation, 0 for ``=``, 1 for ``<=`` and 2 for ``>=``,
    and its right-hand side; the model has no ranged rows."""
    lo, hi = model.row_lower, model.row_upper
    return np.where(lo == hi, 0, np.where(np.isinf(lo), 1, 2)), np.where(np.isinf(lo), hi, lo)


def export_model(model: MipModel, fmt: str, fh: TextIO) -> None:
    """Write ``model`` to ``fh`` as free-MPS (``fmt`` ``"free-mps"`` or
    ``"mps"``) or LP text (``"lp-text"`` or ``"lp"``),
    byte-deterministically.  ``fmt`` is matched ignoring case and
    surrounding blanks.

    The text goes out in windows of :data:`EXPORT_CHUNK_LINES` lines,
    one ``fh.write`` call each (the last may be shorter), so the whole
    text is never held in memory.  Each window is rendered as one numpy
    byte block from fixed-width field arrays (:func:`_mps_sections`,
    :func:`_lp_sections`).
    """
    key = fmt.strip().lower()
    if key in {"mps", "free-mps"}:
        windows = _windows(_mps_sections(model))
    elif key in {"lp", "lp-text"}:
        windows = _windows(_lp_sections(model))
    else:
        raise FormatError(f"unsupported export format: {fmt!r} (use 'free-mps' or 'lp-text')")
    for text in windows:
        fh.write(text)


_Section = Tuple[int, Callable[[int, int], str]]


def _windows(sections: Sequence[_Section]) -> Iterator[str]:
    """The text of ``sections``, each a line count and a function that
    renders lines ``[lo, hi)``, in windows of exactly
    :data:`EXPORT_CHUNK_LINES` lines but the last."""
    parts: List[str] = []
    room = EXPORT_CHUNK_LINES
    for count, render in sections:
        lo = 0
        while lo < count:
            hi = min(count, lo + room)
            parts.append(render(lo, hi))
            room -= hi - lo
            lo = hi
            if room == 0:
                yield "".join(parts)
                parts, room = [], EXPORT_CHUNK_LINES
    if parts:
        yield "".join(parts)


def _fixed(*lines: str) -> _Section:
    """A section of literal lines."""
    texts = [line + "\n" for line in lines]
    return len(texts), lambda lo, hi: "".join(texts[lo:hi])


def _lines(*fields) -> str:
    """The text of a block whose rows each join one entry of every
    field: a byte string all rows share or an ``S`` array with one entry
    per row (a ``b"\\n"`` field ends lines).  The fields are laid side by
    side as one (rows x bytes) block, whose NUL padding is then dropped."""
    columns = [np.asarray(field).reshape(-1) for field in fields]
    n = max(column.size for column in columns)
    block = np.concatenate([
        np.broadcast_to(column.view(np.uint8).reshape(column.size, -1), (n, column.itemsize))
        for column in columns
    ], axis=1)
    return block[block != 0].tobytes().decode("ascii")


def _merged(n: int, *pieces: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """An ``S`` array of ``n`` entries, ``values`` where ``mask`` for each
    ``(mask, values)``; as wide as the widest entries placed."""
    width = max((np.asarray(values).itemsize for mask, values in pieces if mask.any()), default=1)
    out = np.zeros(n, dtype=f"S{width}")
    for mask, values in pieces:
        out[mask] = values
    return out


def _mps_sections(model: MipModel) -> List[_Section]:
    """The free-MPS text of ``model`` as sections of fixed fields."""
    columns, rows = model._column_labels(), model._row_labels()
    relation, rhs = _relations(model)
    senses = np.array([b"E", b"L", b"G"])[relation]
    nonzero = np.flatnonzero(rhs)
    upper = model.upper
    finite = np.flatnonzero(np.isfinite(upper))

    def rhs_lines(lo: int, hi: int) -> str:
        at = nonzero[lo:hi]
        return _lines(b"    RHS ", rows[at], b" ", _texts(rhs[at]), b"\n")

    def bound_lines(lo: int, hi: int) -> str:
        at = finite[lo:hi]
        return _lines(b" UP BND ", columns[at], b" ", _texts(upper[at]), b"\n")

    return [
        _fixed("NAME vpadvisor", "OBJSENSE", "    MIN", "ROWS", " N obj"),
        (rows.size, lambda lo, hi: _lines(b" ", senses[lo:hi], b" ", rows[lo:hi], b"\n")),
        _fixed("COLUMNS"),
        _column_section(model, columns, rows),
        _fixed("RHS"),
        (nonzero.size, rhs_lines),
        _fixed("BOUNDS"),
        (finite.size, bound_lines),
        _fixed("ENDATA"),
    ]


def _column_section(model: MipModel, columns: np.ndarray, rows: np.ndarray) -> _Section:
    """The COLUMNS lines, column by column: a marker where an
    ``INTORG``/``INTEND`` block of integer columns opens or closes, the
    objective coefficient when nonzero, then the column's entries in row
    order.  A line's place follows from the counts alone: column ``j``
    starts at ``first[j]`` with one marker slot, one objective slot and
    its CSC entries; slot ``j = n`` after the last column holds only the
    marker that closes a final integer block."""
    by_column = model.matrix.tocsc()
    by_column.sort_indices()
    integer = np.concatenate(([0], model.integrality, [0]))
    marker = (integer[1:] != integer[:-1]).astype(np.int64)
    objective = np.append(model.c != 0.0, False).astype(np.int64)
    count = marker + objective + np.append(np.diff(by_column.indptr), 0)
    first = np.concatenate(([0], np.cumsum(count)))
    marker_names = _join(b"MARKER", _ids(np.arange(marker.sum())))
    marker_of = np.cumsum(marker) - 1
    marker_kind = np.where(integer[1:] == 1, b"'INTORG'", b"'INTEND'")

    def render(lo: int, hi: int) -> str:
        line = np.arange(lo, hi)
        j = np.searchsorted(first, line, side="right") - 1
        slot = line - first[j] - marker[j]  # -1 on a marker line, 0 on an objective line
        at_marker = slot < 0
        at_objective = (slot == 0) & (objective[j] == 1)
        at_entry = ~at_marker & ~at_objective
        body = ~at_marker
        jm, jo, je = j[at_marker], j[at_objective], j[at_entry]
        entry = by_column.indptr[je] + slot[at_entry] - objective[je]
        values = np.zeros(line.size)
        values[at_objective] = model.c[jo]
        values[at_entry] = by_column.data[entry]
        n = line.size
        return _lines(
            b"    ",
            _merged(n, (at_marker, marker_names[marker_of[jm]]), (body, columns[j[body]])),
            b" ",
            _merged(n, (at_marker, b"'MARKER'"), (at_objective, b"obj"),
                    (at_entry, rows[by_column.indices[entry]])),
            b" ",
            _merged(n, (at_marker, marker_kind[jm]), (body, _texts(values[body]))),
            b"\n",
        )

    return int(first[-1]), render


def _lp_sections(model: MipModel) -> List[_Section]:
    """The LP text of ``model`` as sections of fixed fields."""
    columns = model._column_labels()
    relation, rhs = _relations(model)
    # An all-zero objective is written as one zero term, ``0 <last column>``.
    costed = np.flatnonzero(model.c) if model.c.any() else np.array([model.c.size - 1])
    objective = sp.csr_array((model.c[costed], costed, [0, costed.size]), shape=(1, model.c.size))
    tails = np.strings.add(np.array([b" = ", b" <= ", b" >= "])[relation], _texts(rhs))
    # Continuous columns keep the LP default bounds [0, inf): no Bounds section.
    binary = np.flatnonzero(model.integrality)
    return [
        _fixed("\\ vpadvisor linearized placement model", "Minimize"),
        _expressions(np.array([b"obj"]), objective, columns, np.array([b""])),
        _fixed("Subject To"),
        _expressions(model._row_labels(), model.matrix, columns, tails),
        _fixed(*["Binary"][: binary.size]),
        (binary.size, lambda lo, hi: _lines(b" ", columns[binary[lo:hi]], b"\n")),
        _fixed("End"),
    ]


def _expressions(labels: np.ndarray, by_row: sp.csr_array, names: np.ndarray,
                 tails: np.ndarray) -> _Section:
    """LP expressions, one per row of ``by_row``: `` label:``, a term
    `` [sign] [magnitude] name`` per entry (no unit magnitude, no ``+``
    on a first term) and the row's tail.  Past 200 characters, each term
    but the first that would overflow its line starts a new line, after
    three blanks.  Expression ``i`` is the items head, terms and tail from
    ``first[i]``, one block row each; a newline ends item ``ends[k]``."""
    indptr, indices, data = by_row.indptr, by_row.indices, by_row.data
    first = 2 * np.arange(labels.size + 1) + indptr
    # Term widths with their blank: " + name", "magnitude " unless 1, no "+ " first.
    size = 3 + np.strings.str_len(names)[indices]
    scaled = np.flatnonzero(np.abs(data) != 1.0)
    size[scaled] += 1 + np.strings.str_len(_texts(np.abs(data[scaled])))
    opening = indptr[:-1][np.diff(indptr) > 0]
    size[opening] -= 2 * (data[opening] >= 0)
    total = np.concatenate(([0], np.cumsum(size)))
    length = 2 + np.strings.str_len(labels) + total[indptr[1:]] - total[indptr[:-1]]
    wraps = []  # the items that start a continued line
    for i in np.flatnonzero(length > 200).tolist():
        line = 2 + len(labels[i])
        for k, width in enumerate(size[indptr[i] : indptr[i + 1]].tolist()):
            if line + width > 200 and k:
                wraps.append(first[i] + 1 + k)
                line = 2 + width
            else:
                line += width
    ends = np.sort(np.concatenate((first[1:] - 1, np.array(wraps, dtype=np.int64) - 1)))

    def render(lo: int, hi: int) -> str:
        start = ends[lo - 1] + 1 if lo else 0
        item = np.arange(start, ends[hi - 1] + 1)
        i = np.searchsorted(first, item, side="right") - 1
        slot = item - first[i]  # 0 at the head, k at the k-th term
        head = slot == 0
        tail = item == first[i + 1] - 1
        term = ~head & ~tail
        entry = indptr[i[term]] + slot[term] - 1
        values = data[entry]
        magnitude = np.abs(values)
        n = item.size
        newline = np.zeros(n, dtype=np.bool_)
        newline[ends[lo:hi] - start] = True
        return _lines(
            _merged(n, (~tail, b" "), (term & np.roll(newline, 1), b"   ")),
            _merged(n, (term, np.where(values < 0, b"- ", np.where(slot[term] == 1, b"", b"+ "))),
                    (tail, tails[i[tail]])),
            _merged(n, (term, np.where(magnitude == 1.0, b"",
                                       np.strings.add(_texts(magnitude), b" ")))),
            _merged(n, (head, labels[i[head]]), (term, names[indices[entry]])),
            _merged(n, (head, b":"), (newline, b"\n")),
        )

    return ends.size, render


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
    * Sites are interchangeable unless pins tell them apart, so without
      pins the site-ordering rows of ``build_mip(use_symmetry=True)``
      are added.

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
    return {
        "c": c,
        "integrality": integrality,
        "bounds": Bounds(lb, ub),
        "constraints": LinearConstraint(*rows.arrays(n)),
    }


def solve_exact(instance: Instance, config: Optional[ExactConfig] = None) -> SolveReport:
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
