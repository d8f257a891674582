"""Integer-program construction, export, exact solver, enumeration."""
from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy._core import (
    HighsModelStatus, HighsStatus, MatrixFormat, ObjSense, _Highs,
)

from vpadvisor import (
    BudgetExceededError,
    ExactConfig,
    GenParams,
    Partitioning,
    SaConfig,
    brute_force,
    build_mip,
    check_feasible,
    derive,
    enumeration_size,
    evaluate,
    export_model,
    generate,
    solve_exact,
    solve_sa,
    tpcc,
)
from vpadvisor import mip as mip_module
from vpadvisor import program as program_module
from vpadvisor.errors import FormatError
from vpadvisor.mip import _compact_model
from vpadvisor.program import _num
from vpadvisor.report import (
    STATUS_FEASIBLE_TIME_LIMIT,
    STATUS_NO_SOLUTION_TIME_LIMIT,
    STATUS_OPTIMAL,
)

from conftest import (
    check_point,
    lifted_point,
    random_instance,
    random_partitioning,
    set_load_and_latency,
    t1_instance,
    t2_instance,
)


# ---------------------------------------------------------------------------
# model construction


def test_t1_model_shape(t1):
    model = build_mip(t1)
    # x: 2, y: 4, u: 4, m: 1
    assert model.variable_count == 11
    # assign 1, cover 2, coloc 4, load 2, linearization 12
    assert model.constraint_count == 21


def test_variable_count_formula_holds_generally():
    inst = random_instance(1, site_count=3)
    model = build_mip(inst)
    T, A, S = inst.transaction_count, inst.attribute_count, inst.site_count
    assert model.variable_count == T * S + A * S + T * A * S + 1
    assert model.constraint_count == T + A + A * T * S + S + 3 * T * A * S


def test_u_variables_are_continuous(t1):
    model = build_mip(t1)
    kinds = {
        name.split("_")[0]: (int(integer), lo, up)
        for name, integer, lo, up in zip(
            model.column_names(), model.integrality, np.zeros(model.variable_count), model.upper
        )
    }
    assert kinds["x"] == (1, 0.0, 1.0)
    assert kinds["y"] == (1, 0.0, 1.0)
    assert kinds["u"] == (0, 0.0, math.inf)
    assert kinds["m"] == (0, 0.0, math.inf)


@pytest.mark.parametrize("seed", range(10))
def test_lifted_layouts_satisfy_every_constraint(seed):
    inst = random_instance(seed, site_count=2 + seed % 2)
    model = derive(inst)
    mip = build_mip(inst)
    rng = np.random.default_rng(seed * 3 + 1)
    for _ in range(10):
        part = random_partitioning(inst, rng)
        values = lifted_point(mip, part.txn_site, part.replica)
        breakdown = evaluate(inst, model, part)
        values = set_load_and_latency(mip, inst, values, breakdown)
        assert check_point(mip, values) == []
        # the linear objective at the lifted point reproduces the score
        obj = mip.c @ values
        assert obj == pytest.approx(breakdown.score, rel=1e-9, abs=1e-9)


def test_infeasible_layout_violates_some_constraint(t1):
    mip = build_mip(t1)
    # reader on site 1, its attribute only on site 0
    values = lifted_point(mip, np.array([1]), np.array([[True, False], [False, True]]))
    values[mip.m_index] = 1e9  # generous load bound; the violation is structural
    assert check_point(mip, values)


# ---------------------------------------------------------------------------
# export


def _export_text(mip, fmt):
    out = io.StringIO()
    export_model(mip, fmt, out)
    return out.getvalue()


def test_mps_export_is_deterministic_and_structured(t1):
    mip = build_mip(t1)
    text1 = _export_text(mip, "free-mps")
    text2 = _export_text(mip, "free-mps")
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0].startswith("NAME")
    assert "ROWS" in lines
    assert "COLUMNS" in lines
    assert "RHS" in lines
    assert lines[-1] == "ENDATA"
    assert text1.endswith("\n")
    # one row entry per constraint plus the objective row
    rows_at = lines.index("ROWS")
    cols_at = lines.index("COLUMNS")
    assert cols_at - rows_at - 1 == mip.constraint_count + 1


def test_lp_export_names_variables_by_role(t1):
    text = _export_text(build_mip(t1), "lp-text")
    assert "Minimize" in text
    assert "Subject To" in text
    assert "Binary" in text
    assert "x_0_0" in text and "y_1_1" in text and "u_0_1_0" in text
    assert text.rstrip().endswith("End")


def test_export_rejects_unknown_format(t1):
    for fmt in ("qps", "free_mps", "lp_text"):
        out = io.StringIO()
        with pytest.raises(FormatError):
            export_model(build_mip(t1), fmt, out)
        assert out.getvalue() == ""


@pytest.mark.parametrize("pin,message", [
    ((2, 0), "pinned replica names unknown attribute 2"),
    ((-1, 0), "pinned replica names unknown attribute -1"),
    ((0, 2), "pinned replica names unknown site 2"),
    ((1, -1), "pinned replica names unknown site -1"),
])
def test_pins_naming_unknown_ids_are_rejected(t1, pin, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_mip(t1, fixed_replicas=(pin,))
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_exact(t1, ExactConfig(fixed_replicas=((0, 0), pin)))


def test_exported_mps_matches_lp_variable_sets(t1):
    mip = build_mip(t1)
    mps = _export_text(mip, "free-mps")
    lp = _export_text(mip, "lp-text")
    for name in mip.column_names():
        assert name in mps
        assert name in lp


# The sha256 of each free-MPS text as the object-per-row build_mip of
# commit f6eba67 wrote it, before the model moved to sparse arrays.
EXPORT_HASHES = [
    ("t1", {}, "db3188c9553353cb2e572a9f18ff1a140781a533942891bf0ad72f020df753c6"),
    ("t1", {"use_symmetry": True},
     "eb5282529d8e837fec969fc7222cfcbcc53e9de8ccc68746de2c48c4ff8a18e1"),
    ("latency", {}, "4816ea22f92d0c1e921fa3454c06ed35842f8edf2630ca78992a5203e9a59210"),
    ("latency", {"forbid_replication": True, "fixed_replicas": ((0, 1), (1, 0))},
     "7bca2e171437e739d487d4e3c74e99c96de9dc718b1a75b75f9099731538389c"),
]


def _pinned_instance(name):
    if name == "t1":
        return t1_instance()
    if name == "wide":  # its load rows wrap in LP text
        return random_instance(
            4, site_count=3, transaction_count=10, table_count=8, latency_penalty=5.0,
            update_percent=40.0,
        )
    return random_instance(2, site_count=2, latency_penalty=7.0, update_percent=60.0)


@pytest.mark.parametrize("name,options,digest", EXPORT_HASHES)
def test_mps_export_text_is_pinned(name, options, digest):
    text = _export_text(build_mip(_pinned_instance(name), **options), "free-mps")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The sha256 of each LP text, for the cases of EXPORT_HASHES and one
# with wrapped rows, as the writer of commit a1c7fdf (one joined string
# per export) produced it.
LP_EXPORT_HASHES = [
    ("t1", {}, "f4f0c425c4a86327209cfab88e680693018f73474d777971531bd5c1ff9de72f"),
    ("t1", {"use_symmetry": True},
     "6775eb4470ea57bc7f2baff6a2c68a423dead81dd5eaee92e76fde5ce7e957a4"),
    ("latency", {}, "ec72eb2ed3457ac6356ebed86351b2a3bc0e4931e6dfbadcd7a6e18c371db066"),
    ("latency", {"forbid_replication": True, "fixed_replicas": ((0, 1), (1, 0))},
     "e95adfcefcda4060700017b77f7fc70cd6fbb86b345fba6de3953bc0a18f9f7e"),
    ("wide", {"use_symmetry": True, "fixed_replicas": ((0, 1),)},
     "160c5c36d4140326037dde9e3ddd16aec64bdbb4700a5fd9773539e7e62e1c00"),
]


@pytest.mark.parametrize("name,options,digest", LP_EXPORT_HASHES)
def test_lp_export_text_is_pinned(name, options, digest):
    text = _export_text(build_mip(_pinned_instance(name), **options), "lp-text")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _SpyFile:
    """A text sink that records every ``write`` call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["free-mps", "lp-text"])
def test_export_streams_in_bounded_writes(fmt, monkeypatch):
    mip = build_mip(_pinned_instance("wide"), use_symmetry=True, fixed_replicas=((0, 1),))
    assert mip.constraint_count > 2000
    whole = _SpyFile()
    monkeypatch.setattr(program_module, "EXPORT_CHUNK_LINES", 10**9)
    export_model(mip, fmt, whole)
    assert len(whole.writes) == 1
    text = whole.writes[0]
    chunk = 200
    monkeypatch.setattr(program_module, "EXPORT_CHUNK_LINES", chunk)
    spy = _SpyFile()
    export_model(mip, fmt, spy)
    assert "".join(spy.writes) == text
    assert len(spy.writes) == -(-text.count("\n") // chunk)
    assert all(part.count("\n") <= chunk and part.endswith("\n") for part in spy.writes)
    # lines are short, so a write's size is bounded by its line count
    assert max(len(line) for line in text.splitlines()) <= 256


def test_model_holds_no_names_and_formats_them_on_request():
    inst = random_instance(2, site_count=3, latency_penalty=7.0, update_percent=60.0)
    mip = build_mip(inst, use_symmetry=True, fixed_replicas=((1, 2), (0, 1)))
    for field in dataclasses.fields(mip):
        value = getattr(mip, field.name)
        if isinstance(value, (tuple, list)):
            assert not any(isinstance(item, str) for item in value), field.name
    columns, rows = mip.column_names(), mip.row_names()
    assert len(columns) == len(set(columns)) == mip.variable_count
    assert len(rows) == len(set(rows)) == mip.constraint_count
    assert columns[mip.u_index(1, 2, 1)] == "u_1_2_1"
    assert columns[mip.psi_index(0)] == f"psi_q{mip.write_query_ids[0]}"
    assert [name for name in rows if name.startswith("pin_")] == ["pin_a0_s1", "pin_a1_s2"]
    assert sum(name.startswith("sym_") for name in rows) == inst.transaction_count * 2
    assert rows[-1] == f"remote_q{mip.write_query_ids[-1]}"


def test_psi_index_rejects_positions_without_an_indicator():
    inst = random_instance(2, site_count=3, latency_penalty=7.0, update_percent=60.0)
    mip = build_mip(inst)
    n_writes = len(mip.write_query_ids)
    assert n_writes and mip.psi_index(n_writes - 1) == mip.variable_count - 1
    for pos in (n_writes, -1):
        with pytest.raises(ValueError, match="no latency indicator"):
            mip.psi_index(pos)
    unpriced = build_mip(dataclasses.replace(inst, latency_penalty=None))
    with pytest.raises(ValueError, match="no latency indicator"):
        unpriced.psi_index(0)


def _reference_names(mip):
    """Column and row names as the earlier f-string builders formatted
    them, one Python string at a time."""
    txns, attrs, sites = ([str(i) for i in range(n)] for n in (mip.n_txns, mip.n_attrs, mip.n_sites))
    columns = (
        [f"x_{t}_{s}" for t in txns for s in sites]
        + [f"y_{a}_{s}" for a in attrs for s in sites]
        + [f"u_{t}_{a}_{s}" for t in txns for a in attrs for s in sites]
        + ["m"]
        + [f"psi_q{q}" for q in mip.write_query_ids]
    )
    rows = (
        [f"assign_t{t}" for t in txns]
        + [f"cover_a{a}" for a in attrs]
        + [f"coloc_a{a}_t{t}_s{s}" for a in attrs for t in txns for s in sites]
        + [f"load_s{s}" for s in sites]
        + [f"lin_{side}_t{t}_a{a}_s{s}"
           for t in txns for a in attrs for s in sites for side in ("x", "y", "xy")]
        + ([f"sym_t{t}_s{s}" for t in txns for s in sites[1:]] if mip.symmetry else [])
        + [f"pin_a{a}_s{s}" for a, s in mip.pins]
        + [f"remote_q{q}" for q in mip.write_query_ids]
    )
    return columns, rows


def _reference_mps(mip):
    """The free-MPS text as the earlier per-line writer formatted it, one
    f-string per line: the reference the byte-block writer must equal."""
    column_names, row_names = _reference_names(mip)
    lo, hi = mip.row_lower, mip.row_upper
    senses = np.where(lo == hi, "E", np.where(np.isinf(lo), "L", "G")).tolist()
    rhs = np.where(np.isinf(lo), hi, lo)
    lines = ["NAME vpadvisor", "OBJSENSE", "    MIN", "ROWS", " N obj"]
    lines += [f" {sense} {name}" for sense, name in zip(senses, row_names)]
    lines.append("COLUMNS")
    by_column = mip.matrix.tocsc()
    by_column.sort_indices()
    in_integer = False
    marker = 0
    for j, name in enumerate(column_names):
        if bool(mip.integrality[j]) != in_integer:
            lines.append(f"    MARKER{marker} 'MARKER' '{'INTEND' if in_integer else 'INTORG'}'")
            marker += 1
            in_integer = not in_integer
        if mip.c[j] != 0.0:
            lines.append(f"    {name} obj {_num(mip.c[j])}")
        entries = slice(by_column.indptr[j], by_column.indptr[j + 1])
        lines += [f"    {name} {row_names[r]} {_num(v)}"
                  for r, v in zip(by_column.indices[entries], by_column.data[entries])]
    if in_integer:
        lines.append(f"    MARKER{marker} 'MARKER' 'INTEND'")
    lines.append("RHS")
    lines += [f"    RHS {row_names[i]} {_num(rhs[i])}" for i in np.flatnonzero(rhs)]
    lines.append("BOUNDS")
    lines += [f" UP BND {column_names[j]} {_num(mip.upper[j])}"
              for j in np.flatnonzero(np.isfinite(mip.upper))]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _read_mps(text):
    """Parse free-MPS text back into the arrays of a model (``c``,
    ``matrix``, ``row_lower``, ``row_upper``, ``integrality``, ``upper``)
    and its row and column names, matching entries to rows and columns
    by name and numbering both in the order the file first names them."""
    section, in_integer = "", False
    senses, columns, integer = {}, {}, set()
    objective, entries, rhs, upper = {}, [], {}, {}
    for line in text.splitlines():
        fields = line.split()
        if not line.startswith(" "):
            section = fields[0]
        elif section == "ROWS":
            if fields[0] != "N":
                senses[fields[1]] = fields[0]
        elif section == "COLUMNS" and fields[1] == "'MARKER'":
            in_integer = fields[2] == "'INTORG'"
        elif section == "COLUMNS":
            column, row, value = fields[0], fields[1], float(fields[2])
            if column not in columns:
                columns[column] = len(columns)
                if in_integer:
                    integer.add(column)
            if row == "obj":
                objective[column] = value
            else:
                entries.append((row, column, value))
        elif section == "RHS":
            rhs[fields[1]] = float(fields[2])
        elif section == "BOUNDS":
            assert fields[:2] == ["UP", "BND"]
            upper[fields[2]] = float(fields[3])
    row_of = {name: i for i, name in enumerate(senses)}
    rows, cols, coefs = zip(*entries)
    values = np.array([rhs.get(name, 0.0) for name in senses])
    kind = np.array(list(senses.values()))
    return {
        "rows": list(senses),
        "columns": list(columns),
        "entries": len(entries),
        "c": np.array([objective.get(name, 0.0) for name in columns]),
        "matrix": sp.csr_array((coefs, ([row_of[r] for r in rows], [columns[c] for c in cols])),
                               shape=(len(senses), len(columns))),
        "row_lower": np.where(kind == "L", -np.inf, values),
        "row_upper": np.where(kind == "G", np.inf, values),
        "integrality": np.array([name in integer for name in columns], dtype=np.int8),
        "upper": np.array([upper.get(name, np.inf) for name in columns]),
    }


def _chunked_export(mip, fmt, chunk):
    """The export text written with ``EXPORT_CHUNK_LINES`` at ``chunk``,
    checking that every write holds at most ``chunk`` whole lines."""
    spy = _SpyFile()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(program_module, "EXPORT_CHUNK_LINES", chunk)
        export_model(mip, fmt, spy)
    assert all(part.count("\n") <= chunk and part.endswith("\n") for part in spy.writes)
    return "".join(spy.writes)


# (generator seed, sites, transactions, update percent, cost weight,
# latency penalty, use_symmetry, forbid_replication, pins); pins are
# taken modulo the instance's attribute and site counts.
_EXPORT_CASES = st.tuples(
    st.integers(0, 2**16), st.integers(1, 4), st.integers(1, 12),
    st.sampled_from([0.0, 30.0, 100.0]), st.sampled_from([0.0, 0.4, 1.0]),
    st.sampled_from([None, 3.5]), st.booleans(), st.booleans(),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3)), max_size=3),
)
_EXPORT_PROPERTY = settings(max_examples=40, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])
# No write query at all; and latency indicators whose first column both
# opens an integer block and carries an objective coefficient.
_NO_WRITES = (5, 3, 11, 0.0, 0.4, 3.5, True, False, [(4, 2)])
_PRICED_MARKER = (2, 2, 3, 60.0, 0.1, 7.0, False, True, [(0, 1), (1, 0)])


def _case_model(case):
    seed, sites, txns, update, weight, latency, symmetry, disjoint, pins = case
    inst = random_instance(seed, site_count=sites, transaction_count=txns,
                           update_percent=update, cost_weight=weight, latency_penalty=latency)
    pins = [(a % inst.attribute_count, s % sites) for a, s in pins]
    return build_mip(inst, use_symmetry=symmetry, forbid_replication=disjoint,
                     fixed_replicas=pins)


def test_export_cases_cover_the_marked_edges():
    assert _case_model(_NO_WRITES).write_query_ids == ()
    mip = _case_model(_PRICED_MARKER)
    psi = mip.psi_index(0)
    assert mip.integrality[psi - 1] == 0 and mip.integrality[psi] == 1 and mip.c[psi] != 0.0


@_EXPORT_PROPERTY
@given(_EXPORT_CASES, st.sampled_from([1, 7, 200]))
@example(_NO_WRITES, 7)
@example(_PRICED_MARKER, 1)
@example(_PRICED_MARKER, 7)
@example(_PRICED_MARKER, 200)
def test_mps_export_equals_the_reference_writer(case, chunk):
    mip = _case_model(case)
    assert (mip.column_names(), mip.row_names()) == _reference_names(mip)
    assert _chunked_export(mip, "free-mps", chunk) == _reference_mps(mip)


@pytest.mark.parametrize("name,options,digest", EXPORT_HASHES)
def test_reference_writer_reproduces_the_pinned_texts(name, options, digest):
    text = _reference_mps(build_mip(_pinned_instance(name), **options))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@_EXPORT_PROPERTY
@given(_EXPORT_CASES)
@example(_NO_WRITES)
@example(_PRICED_MARKER)
def test_mps_export_reads_back_as_the_model(case):
    mip = _case_model(case)
    parsed = _read_mps(_export_text(mip, "free-mps"))
    assert parsed["columns"] == mip.column_names()
    assert parsed["rows"] == mip.row_names()
    for name in ("c", "row_lower", "row_upper", "integrality", "upper"):
        assert np.array_equal(parsed[name], getattr(mip, name)), name
    assert parsed["entries"] == mip.matrix.nnz
    assert np.array_equal(parsed["matrix"].toarray(), mip.matrix.toarray())


def _reference_lp(mip):
    """The LP text as the earlier per-line writer formatted it, one
    string per term and per line: the reference the byte-block writer
    must equal."""
    names, row_names = _reference_names(mip)

    def expression(label, columns, values, tail):
        """`` label: term ...`` and ``tail``; past 200 characters each
        term but the first that would overflow its line starts a new
        line after three blanks."""
        lines, current = [], f" {label}:"
        for k, (j, v) in enumerate(zip(columns.tolist(), values.tolist())):
            sign = "- " if v < 0 else "+ " if k else ""
            term = sign + ("" if abs(v) == 1.0 else f"{_num(abs(v))} ") + names[j]
            if len(current) + 1 + len(term) > 200 and k:
                lines.append(current)
                current = "   " + term
            else:
                current = f"{current} {term}"
        return lines + [f"{current} {tail}" if tail else current]

    lines = ["\\ vpadvisor linearized placement model", "Minimize"]
    obj = np.flatnonzero(mip.c)
    lines += expression("obj", obj, mip.c[obj], "") if obj.size else [f" obj: 0 {names[-1]}"]
    lines.append("Subject To")
    by_row = mip.matrix
    for i, (label, lo, hi) in enumerate(zip(row_names, mip.row_lower, mip.row_upper)):
        entries = slice(by_row.indptr[i], by_row.indptr[i + 1])
        tail = (f"= {_num(lo)}" if lo == hi
                else f"<= {_num(hi)}" if np.isinf(lo) else f">= {_num(lo)}")
        lines += expression(label, by_row.indices[entries], by_row.data[entries], tail)
    bounds = [f" {names[j]} <= {_num(mip.upper[j])}"
              for j in np.flatnonzero((mip.integrality == 0) & np.isfinite(mip.upper))]
    binaries = [f" {names[j]}" for j in np.flatnonzero(mip.integrality)]
    lines += (["Bounds"] + bounds if bounds else []) + (["Binary"] + binaries if binaries else [])
    lines.append("End")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,options,digest", LP_EXPORT_HASHES)
def test_reference_lp_writer_reproduces_the_pinned_texts(name, options, digest):
    text = _reference_lp(build_mip(_pinned_instance(name), **options))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@_EXPORT_PROPERTY
@given(_EXPORT_CASES, st.sampled_from([1, 7, 200]))
@example(_NO_WRITES, 7)
@example(_PRICED_MARKER, 1)
@example(_PRICED_MARKER, 200)
def test_lp_export_equals_the_reference_writer(case, chunk):
    mip = _case_model(case)
    # Every row has an entry, so neither writer needs a text for an empty row.
    assert np.diff(mip.matrix.indptr).min() > 0
    assert _chunked_export(mip, "lp-text", chunk) == _reference_lp(mip)


def _zero_objective_instance():
    """An instance whose objective is all zero: every query frequency is
    0 and the cost weight is 1, so nothing is priced."""
    inst = random_instance(3, site_count=3, latency_penalty=4.0, update_percent=50.0,
                           cost_weight=1.0)
    return dataclasses.replace(
        inst, queries=tuple(dataclasses.replace(q, frequency=0.0) for q in inst.queries))


@pytest.mark.parametrize("chunk", [1, 7, 200])
def test_lp_export_wraps_long_rows_and_writes_an_empty_objective(chunk):
    wide = build_mip(_pinned_instance("wide"), use_symmetry=True, fixed_replicas=((0, 1),))
    text = _chunked_export(wide, "lp-text", chunk)
    assert text == _reference_lp(wide)
    assert any(line.startswith("   ") for line in text.splitlines())  # continued lines
    empty = build_mip(_zero_objective_instance())
    assert not empty.c.any() and empty.write_query_ids
    text = _chunked_export(empty, "lp-text", chunk)
    assert text == _reference_lp(empty)
    assert text.splitlines()[2] == f" obj: 0 psi_q{empty.write_query_ids[-1]}"


def _read_with_highs(mip, fmt, path):
    """The model HiGHS's own reader takes from the exported text, its
    columns and rows put in the model's order by name.  HiGHS picks its
    reader by the suffix of ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        export_model(mip, fmt, fh)
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == HighsStatus.kOk
    lp = highs.getLp()
    assert lp.sense_ == ObjSense.kMinimize and lp.offset_ == 0.0
    assert sorted(lp.col_names_) == sorted(mip.column_names())
    assert sorted(lp.row_names_) == sorted(mip.row_names())
    col_of = {name: j for j, name in enumerate(lp.col_names_)}
    row_of = {name: i for i, name in enumerate(lp.row_names_)}
    cols = [col_of[name] for name in mip.column_names()]
    rows = [row_of[name] for name in mip.row_names()]
    a = lp.a_matrix_
    assert a.format_ == MatrixFormat.kColwise
    matrix = sp.csc_array((a.value_, a.index_, a.start_), shape=(lp.num_row_, lp.num_col_))
    return {
        "c": np.array(lp.col_cost_)[cols],
        "lower": np.array(lp.col_lower_)[cols],
        "upper": np.array(lp.col_upper_)[cols],
        "integrality": np.array([int(kind) for kind in lp.integrality_], dtype=np.int8)[cols],
        "row_lower": np.array(lp.row_lower_)[rows],
        "row_upper": np.array(lp.row_upper_)[rows],
        "matrix": matrix.toarray()[np.ix_(rows, cols)],
    }


@pytest.mark.parametrize("name", ["t1", "latency", "wide"])
@pytest.mark.parametrize("fmt,suffix", [("free-mps", ".mps"), ("lp-text", ".lp")])
def test_export_reads_back_through_highs_as_the_model(name, fmt, suffix, tmp_path):
    mip = build_mip(_pinned_instance(name), use_symmetry=True)
    read = _read_with_highs(mip, fmt, tmp_path / f"model{suffix}")
    for field in ("c", "upper", "integrality", "row_lower", "row_upper"):
        assert np.array_equal(read[field], getattr(mip, field)), field
    assert np.array_equal(read["lower"], np.zeros(mip.variable_count))
    assert np.array_equal(read["matrix"], mip.matrix.toarray())


# ---------------------------------------------------------------------------
# independent integer solver on the exported matrices


def _full_optimum(mip):
    res = milp(
        mip.c,
        integrality=mip.integrality,
        bounds=Bounds(0.0, mip.upper),
        constraints=LinearConstraint(mip.matrix, mip.row_lower, mip.row_upper),
    )
    assert res.success, res.message
    return res.fun


@pytest.mark.parametrize("seed", range(5))
def test_model_optimum_agrees_with_reference_integer_solver(seed):
    inst = random_instance(seed, site_count=2)
    mip = build_mip(inst)
    reference = _full_optimum(mip)
    ours = solve_exact(inst, ExactConfig(gap=0.0))
    assert ours.score == pytest.approx(reference, rel=1e-7, abs=1e-7)


def test_latency_model_agrees_with_reference_integer_solver():
    inst = random_instance(2, site_count=2, latency_penalty=7.0, update_percent=60.0)
    mip = build_mip(inst)
    reference = _full_optimum(mip)
    ours = solve_exact(inst, ExactConfig(gap=0.0))
    assert ours.score == pytest.approx(reference, rel=1e-7, abs=1e-7)


# Write-heavy instances: a positive network penalty makes some
# co-location costs negative; at p = 0 only the latency rows want a
# large product.  (seed, sites, cost_weight, p, latency, disjoint, pins)
COMPACT_CASES = [
    (0, 2, 0.0, 8.0, None, False, ()),
    (1, 3, 0.5, 8.0, None, False, ()),
    (2, 2, 1.0, 8.0, None, False, ()),
    (3, 2, 0.5, 8.0, 40.0, False, ()),
    (4, 3, 1.0, 8.0, 40.0, False, ()),
    (5, 2, 0.0, 8.0, 40.0, False, ()),
    (6, 2, 0.5, 8.0, None, True, ()),
    (7, 2, 1.0, 8.0, None, False, ((0, 1), (1, 0))),
    (8, 3, 0.5, 8.0, 40.0, True, ((0, 2),)),
    (9, 2, 0.5, 8.0, 40.0, False, ((1, 1),)),
    (3, 2, 0.5, 0.0, 40.0, False, ()),
    (7, 3, 1.0, 0.0, 40.0, False, ()),
]


@pytest.mark.parametrize("seed,sites,lam,p,latency,disjoint,pins", COMPACT_CASES)
def test_compact_model_optimum_equals_full_model(seed, sites, lam, p, latency, disjoint, pins):
    inst = random_instance(
        seed, site_count=sites, cost_weight=lam, network_penalty=p, latency_penalty=latency,
        update_percent=60.0, transaction_count=4,
    )
    model = derive(inst)
    reference = _full_optimum(
        build_mip(inst, forbid_replication=disjoint, fixed_replicas=pins)
    )
    compact = milp(**_compact_model(
        inst, model, forbid_replication=disjoint, fixed_replicas=pins,
    ))
    assert compact.success, compact.message
    assert compact.fun == pytest.approx(reference, rel=1e-7, abs=1e-7)
    report = solve_exact(inst, ExactConfig(
        gap=0.0, forbid_replication=disjoint, fixed_replicas=pins,
    ))
    assert report.status == STATUS_OPTIMAL
    assert report.score == pytest.approx(reference, rel=1e-7, abs=1e-7)


def _gen_instance(cost_weight):
    return generate(
        GenParams(transaction_count=10, table_count=8, update_percent=50.0, seed=1),
        site_count=3, cost_weight=cost_weight, latency_penalty=5.0,
    )


# (name, instance, forbid_replication, pins): sha256 prefixes of every
# array _compact_model hands to milp, dtypes included, recorded with the
# builder that filtered the load-row coefficients itself and added one
# latency row per write query, and re-recorded when the matrix's indices
# became int32 with every value unchanged.
COMPACT_DIGESTS = [
    ("tpcc-1", lambda: tpcc(site_count=1), False, (), "6c819ad308f61b0e"),
    ("tpcc-2", lambda: tpcc(site_count=2), False, (), "8af0b79ac15393dd"),
    ("tpcc-3", lambda: tpcc(site_count=3), False, (), "dcf28102a1b308b8"),
    ("tpcc-4", lambda: tpcc(site_count=4), False, (), "429211d102e34535"),
    ("tpcc-3-latency", lambda: tpcc(site_count=3, latency_penalty=5.0), False, (),
     "c36f5aa3f3d0a4db"),
    ("gen-0", lambda: _gen_instance(0.0), False, (), "c6a265059f69a1c7"),
    ("gen-0.5", lambda: _gen_instance(0.5), False, (), "e32cea13e977e765"),
    ("gen-1", lambda: _gen_instance(1.0), False, (), "35a3340441e776e0"),
    ("gen-0.5-pinned-disjoint", lambda: _gen_instance(0.5), True, ((0, 1), (2, 0)),
     "eedd3e45fae9e2fe"),
]


def _compact_digest(arrays) -> str:
    constraint = arrays["constraints"]
    matrix = constraint.A.copy()
    matrix.sort_indices()
    parts = [
        arrays["c"], arrays["integrality"], arrays["bounds"].lb, arrays["bounds"].ub,
        np.array(matrix.shape), matrix.indptr, matrix.indices, matrix.data,
        constraint.lb, constraint.ub,
    ]
    h = hashlib.sha256()
    for part in parts:
        h.update(str((part.dtype, part.shape)).encode())
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name,make,disjoint,pins,digest", COMPACT_DIGESTS,
                         ids=[case[0] for case in COMPACT_DIGESTS])
def test_compact_model_arrays_are_pinned(name, make, disjoint, pins, digest):
    inst = make()
    arrays = _compact_model(
        inst, derive(inst), forbid_replication=disjoint, fixed_replicas=pins,
    )
    assert _compact_digest(arrays) == digest


# ---------------------------------------------------------------------------
# exact solver behavior


def test_exact_t1_is_optimal(t1):
    report = solve_exact(t1, ExactConfig(gap=0.0))
    assert report.status == STATUS_OPTIMAL
    assert report.score == pytest.approx(80.0)
    assert report.bound_gap == 0.0


def test_exact_matches_brute_on_t2(t2):
    report = solve_exact(t2, ExactConfig(gap=0.0))
    result = brute_force(t2)
    assert report.score == result.score


def test_exact_respects_forbid_replication():
    inst = random_instance(4, site_count=2)
    free = solve_exact(inst, ExactConfig(gap=0.0))
    fixed = solve_exact(inst, ExactConfig(gap=0.0, forbid_replication=True))
    assert (fixed.partitioning.replica.sum(axis=1) == 1).all()
    assert free.score <= fixed.score + 1e-9
    reference = brute_force(inst, forbid_replication=True)
    assert fixed.score == pytest.approx(reference.score, abs=1e-9)


def test_exact_respects_pins():
    inst = random_instance(6, site_count=2)
    pin = ((0, 1), (1, 0))
    report = solve_exact(inst, ExactConfig(gap=0.0, fixed_replicas=pin))
    for a, s in pin:
        assert report.partitioning.replica[a, s]
    free = solve_exact(inst, ExactConfig(gap=0.0))
    assert free.score <= report.score + 1e-9


def test_exact_timeout_with_warm_start_still_returns_solution():
    inst = random_instance(3, site_count=2)
    report = solve_exact(inst, ExactConfig(time_limit=0.0))
    assert report.partitioning is not None
    assert report.status == "feasible-time-limit"
    assert report.score < math.inf
    # no time was left for the integer solver: no nodes, no bound
    assert report.node_count == 0
    assert math.isinf(report.bound_gap)
    model = derive(inst)
    assert check_feasible(inst, model, report.partitioning) == []


@pytest.mark.parametrize("solver,limit", [
    pytest.param("exact", 2.0, id="plain"),
    pytest.param("exact", 0.3, id="plain-short"),
    pytest.param("sa", 0.5, id="sa"),
])
def test_exact_keeps_its_deadline_on_a_large_instance(solver, limit):
    inst = generate(
        GenParams(transaction_count=60, table_count=40, max_attributes_per_table=15, seed=3),
        site_count=4,
    )
    model = derive(inst)
    started = time.perf_counter()
    if solver == "sa":
        report, _ = solve_sa(inst, SaConfig(time_limit=limit), model=model)
    else:
        report = solve_exact(inst, ExactConfig(time_limit=limit))
    wall = time.perf_counter() - started
    assert report.wall_time <= wall
    assert wall <= limit + 1.5, f"took {wall:.2f} s against a {limit} s limit"
    assert report.status == STATUS_FEASIBLE_TIME_LIMIT
    assert check_feasible(inst, model, report.partitioning) == []
    assert report.score == evaluate(inst, model, report.partitioning).score


def test_exact_timeout_without_any_incumbent_reports_no_solution():
    # pins on two different sites + disjoint layouts defeat the trivial
    # single-site incumbents; zero time leaves nothing else
    inst = t1_instance()
    cfg = ExactConfig(
        time_limit=0.0,
        forbid_replication=True,
        fixed_replicas=((0, 0), (1, 1)),
    )
    report = solve_exact(inst, cfg)
    assert report.status == STATUS_NO_SOLUTION_TIME_LIMIT
    assert report.partitioning is None and report.breakdown is None
    assert math.isnan(report.score) and math.isnan(report.objective)


def test_gap_zero_requires_proof_of_optimality():
    inst = random_instance(9, site_count=2)
    report = solve_exact(inst, ExactConfig(gap=0.0))
    assert report.status == STATUS_OPTIMAL
    assert report.bound_gap == 0.0


@pytest.mark.parametrize("penalty", [1e16, 1e18])
def test_exact_reports_optimal_when_highs_proves_it_at_huge_penalties(penalty):
    # at these penalties the re-priced score lies further from HiGHS's
    # dual bound than the gap, although HiGHS proved its layout optimal
    # well inside the time limit
    inst = random_instance(5, site_count=2, update_percent=50, network_penalty=penalty)
    report = solve_exact(inst, ExactConfig(time_limit=20.0))
    assert report.status == STATUS_OPTIMAL
    assert report.bound_gap <= ExactConfig().gap
    assert report.partitioning == brute_force(inst).partitioning


_MID = dict(site_count=3, transaction_count=8, table_count=4, max_attributes_per_table=5)

# name: (instance, pins) for EXACT_GOLDEN.
EXACT_CASES = {
    "tpcc-2": (lambda: tpcc(site_count=2), ()),
    "tpcc-3": (lambda: tpcc(site_count=3), ()),
    "tpcc-4": (lambda: tpcc(site_count=4), ()),
    "random-plain": (lambda: random_instance(0, **_MID), ()),
    "random-latency": (lambda: random_instance(4, latency_penalty=5.0, update_percent=60.0, **_MID),
                       ()),
    "random-pinned": (lambda: random_instance(1, **_MID), ((0, 2), (3, 1))),
}

# name: (score as float.hex, status, node count, sha256 prefixes of
# txn_site and replica) that solve_exact returns with the default config.
# The warm-start annealer's layout is considered first, so ties keep it.
# Re-pinned when HiGHS began to start from the re-solve of the
# annealer's homes: tpcc-2 went from 8450.0 to 8451.1 and tpcc-3 from
# 7593.4 to 7595.0, both within the default gap of the old scores and of
# the proven optima, and the node counts now add up both HiGHS runs.
# random-pinned has no warm start and kept its row.
EXACT_GOLDEN = {
    "tpcc-2": ("0x1.0818ccccccccdp+13", "optimal", 2, "19cda4a05c029f2a", "dfd2502ccc0a9089"),
    "tpcc-3": ("0x1.dab0000000000p+12", "optimal", 2, "265c50809e27b950", "d6e0dbaccada3ff6"),
    "tpcc-4": ("0x1.d963333333334p+12", "optimal", 1, "265c50809e27b950", "649c490a7ea5f4a0"),
    "random-plain": ("0x1.6433333333334p+9", "optimal", 6, "982866a44435ad28", "c6410618452cc814"),
    "random-latency": ("0x1.38e6666666667p+10", "optimal", 4, "6998e78c1a95cd59",
                       "07df79a869ccd09a"),
    "random-pinned": ("0x1.8200000000000p+9", "optimal", 9, "78c5d613c38434e7", "d3cc988c9c7ddaf7"),
}


@pytest.mark.parametrize("name", list(EXACT_GOLDEN))
def test_exact_answers_are_pinned(name):
    make, pins = EXACT_CASES[name]
    report = solve_exact(make(), ExactConfig(fixed_replicas=pins))
    part = report.partitioning
    got = (report.score.hex(), report.status, report.node_count,
           _sha(part.txn_site.tobytes()), _sha(part.replica.tobytes()))
    assert got == EXACT_GOLDEN[name]


class _RecordingHighs:
    """The HiGHS binding, recording the column bounds each run starts
    with, each starting vector and each run's column vector."""

    def __init__(self, log):
        self._highs = _Highs()
        self._log = log

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def setSolution(self, solution):
        self._log.append(("start", np.array(solution.col_value)))
        return self._highs.setSolution(solution)

    def run(self):
        lp = self._highs.getLp()
        self._log.append(("run", np.array(lp.col_lower_), np.array(lp.col_upper_)))
        status = self._highs.run()
        self._log.append(("solution", np.array(self._highs.getSolution().col_value)))
        return status


# On tpcc-3 the annealer's first transaction is on its last site, so the
# re-solve has to renumber the sites.
@pytest.mark.parametrize("name", ["tpcc-2", "tpcc-3"])
def test_exact_starts_highs_from_the_fixed_homes_re_solve(monkeypatch, name):
    log = []
    monkeypatch.setattr(mip_module, "_Highs", lambda: _RecordingHighs(log))
    inst = EXACT_CASES[name][0]()
    report = solve_exact(inst)
    assert report.score.hex() == EXACT_GOLDEN[name][0]
    assert [entry[0] for entry in log] == ["run", "solution", "start", "run", "solution"]
    (_, fixed_lower, fixed_upper), (_, resolved), (_, start), (_, lower, upper), _ = log
    arrays = _compact_model(inst, derive(inst), forbid_replication=False, fixed_replicas=())
    assert np.array_equal(lower, arrays["bounds"].lb)  # the x bounds were restored
    assert np.array_equal(upper, arrays["bounds"].ub)
    nx = inst.transaction_count * inst.site_count
    # the re-solve fixed every home, sites numbered in order of first use
    assert np.array_equal(fixed_lower[:nx], fixed_upper[:nx])
    homes = fixed_lower[:nx].reshape(inst.transaction_count, inst.site_count)
    assert np.array_equal(homes.sum(axis=1), np.ones(inst.transaction_count))
    site = np.argmax(homes, axis=1)
    assert site[0] == 0 and (np.diff(np.maximum.accumulate(site)) <= 1).all()
    assert np.array_equal(fixed_lower[nx:], lower[nx:])
    assert np.array_equal(fixed_upper[nx:], upper[nx:])
    # the main run started from the re-solve's whole column vector
    assert np.array_equal(resolved[:nx], fixed_lower[:nx])
    assert np.array_equal(start, resolved)


@pytest.mark.parametrize("config,runs", [
    pytest.param(ExactConfig(fixed_replicas=((0, 1),)), ["run", "solution"], id="pinned"),
    pytest.param(ExactConfig(forbid_replication=True), ["run", "solution"], id="disjoint"),
    pytest.param(ExactConfig(time_limit=0.0), [], id="no-time"),
])
def test_exact_runs_no_warm_start_when_pinned_disjoint_or_out_of_time(monkeypatch, config,
                                                                        runs):
    def sa(*args, **kwargs):
        raise AssertionError("the warm start ran")

    log = []
    monkeypatch.setattr(mip_module, "solve_sa", sa)
    monkeypatch.setattr(mip_module, "_Highs", lambda: _RecordingHighs(log))
    report = solve_exact(random_instance(3, site_count=2), config)
    assert report.partitioning is not None
    # no re-solve and no start: the main run alone, when time is left
    assert [entry[0] for entry in log] == runs


class _FailingHighs(_RecordingHighs):
    def run(self):
        raise RuntimeError("highs failed")


@pytest.mark.parametrize("failing", ["solve_sa", "highs"])
def test_exact_surfaces_a_stage_failure(monkeypatch, failing):
    annealing = threading.Event()
    real_sa = mip_module.solve_sa

    def sa(*args, **kwargs):
        annealing.set()
        if failing == "solve_sa":
            raise RuntimeError("solve_sa failed")
        return real_sa(*args, **kwargs)

    monkeypatch.setattr(mip_module, "solve_sa", sa)
    monkeypatch.setattr(mip_module, "_Highs", lambda: _FailingHighs([]))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        solve_exact(tpcc(site_count=2))
    assert annealing.is_set()
    assert threading.active_count() == threads  # the stages start no thread


def test_highs_run_treats_a_spent_deadline_as_no_time_left():
    inst = tpcc(site_count=2)
    highs = mip_module._HighsModel(
        _compact_model(inst, derive(inst), forbid_replication=False, fixed_replicas=()), 1e-3,
    )
    run = highs.run(-0.5)  # time ran out while the model was built
    assert run.status == HighsModelStatus.kTimeLimit
    assert run.x is None and run.nodes == 0


@pytest.mark.parametrize("sites,optimum", [(2, 8449.1), (3, 7593.4), (4, 7574.2)])
def test_exact_returns_the_tpcc_optima_within_the_gap(sites, optimum):
    # the optima were proven at gap 0 and are given to one decimal
    report = solve_exact(tpcc(site_count=sites))
    assert report.status == STATUS_OPTIMAL
    assert optimum - 0.05 <= report.score <= (optimum + 0.05) * (1.0 + ExactConfig().gap)
    assert report.bound_gap <= ExactConfig().gap


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_size_formulas(t1):
    assert enumeration_size(t1, False) == 2 * 3 * 3  # S^T * (2^S-1)^A
    assert enumeration_size(t1, True) == 2 * 2 * 2  # S^(T+A)


def test_budget_refusal():
    inst = random_instance(0, site_count=3, transaction_count=6, table_count=4)
    with pytest.raises(BudgetExceededError):
        brute_force(inst, budget=10)


def test_brute_force_result_is_feasible_and_consistent():
    inst = random_instance(5, site_count=2)
    model = derive(inst)
    result = brute_force(inst)
    assert check_feasible(inst, model, result.partitioning) == []
    priced = evaluate(inst, model, result.partitioning)
    assert priced.score == result.score
    assert priced.objective == result.objective
    assert result.node_count == enumeration_size(inst, False)


def test_brute_force_with_latency_dispatches_and_agrees_with_exact():
    inst = random_instance(1, site_count=2, latency_penalty=3.0, update_percent=50.0)
    result = brute_force(inst)
    report = solve_exact(inst, ExactConfig(gap=0.0))
    assert report.score == pytest.approx(result.score, abs=1e-9)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


BRUTE_KINDS = {
    "plain": {},
    "latency": dict(latency_penalty=5.0, update_percent=60.0),
    "cost-only": dict(cost_weight=1.0),
}

# (kind, sites, forbid_replication): sha256 prefixes of the scores (as
# float.hex), the transaction sites and the replica matrices that
# brute_force returns for random_instance seeds 0-9, recorded with the
# odometer-and-bitmask enumerator the index-primitive one replaced.
BRUTE_GOLDEN = {
    ("plain", 2, False): ("d069240e2b69dc77", "c7f488b0dba87b90", "28bfa033582db20b"),
    ("plain", 2, True): ("6ca40713a491ece4", "2dfba633817046c7", "e5cb7a110e6bdeeb"),
    ("plain", 3, False): ("573c3b289b0519cd", "e84da3dceaa45fa3", "8fd83211a7d05e01"),
    ("plain", 3, True): ("6ca40713a491ece4", "2dfba633817046c7", "c6fb33d6c91886b6"),
    ("latency", 2, False): ("0bcc65bdcefba6f4", "fedfcce40025f21b", "b88e39cf5d9c66b0"),
    ("latency", 2, True): ("dbfa148b86c82d33", "a4c59e0b78947a84", "f448c9643326b836"),
    ("latency", 3, False): ("e62a5b131f42c027", "85c319bd45412d9a", "f5ac5f9ec48a767a"),
    ("latency", 3, True): ("c9095574240f31f9", "1a7625f990c9fd8c", "54d49e470c88ee7e"),
    ("cost-only", 2, False): ("d0f0f24c105dc2c0", "7c4bc2e2cb969616", "bddb7d2894bda35e"),
    ("cost-only", 2, True): ("b14e9d1f3e711bce", "2dfba633817046c7", "e5cb7a110e6bdeeb"),
    ("cost-only", 3, False): ("82aff3f44dc1a183", "cfd10c0f2a5caae2", "a7734e9a968a52a8"),
    ("cost-only", 3, True): ("b14e9d1f3e711bce", "2dfba633817046c7", "c6fb33d6c91886b6"),
}


@pytest.mark.parametrize("kind,sites,forbid", list(BRUTE_GOLDEN))
def test_brute_force_answers_are_pinned(kind, sites, forbid):
    # any change to the enumeration order, the tie-break or the rounding
    # of a score moves at least one of these digests
    scores, homes, replicas = [], [], []
    for seed in range(10):
        inst = random_instance(seed, site_count=sites, **BRUTE_KINDS[kind])
        result = brute_force(inst, forbid_replication=forbid)
        scores.append(result.score.hex())
        homes.append(result.partitioning.txn_site.tobytes())
        replicas.append(result.partitioning.replica.tobytes())
    got = (_sha(" ".join(scores).encode()), _sha(b"".join(homes)), _sha(b"".join(replicas)))
    assert got == BRUTE_GOLDEN[kind, sites, forbid]
