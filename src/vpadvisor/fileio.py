"""Instance and partitioning file formats.

Instances are JSON documents with exactly three top-level keys:
``tables`` (each: name, attributes as {name, width}), ``transactions``
(each: name, queries as {name, kind, frequency, rows: {table: count},
attributes: ["table.column", ...]}), and ``config`` ({sites, p, lambda,
p_latency?}).  Partitionings are ``{"x": {transaction: site}, "y":
{"table.column": [sites...]}}``.  Unknown keys are rejected everywhere;
ids are assigned in document order, so documents written by
:func:`serialize_instance` parse back to equal instances.
"""
from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping

import numpy as np

from .errors import FormatError, ValidationError
from .partitioning import Partitioning, _attr_ref
from .workload import Attribute, Instance, Query, Table, Transaction, validate


def _expect_keys(obj: Mapping[str, Any], required: set, optional: set, where: str) -> None:
    if not isinstance(obj, Mapping):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj.keys())
    missing = sorted(required - keys)
    unknown = sorted(keys - required - optional)
    problems = []
    if missing:
        problems.append(f"missing keys {missing}")
    if unknown:
        problems.append(f"unknown keys {unknown}")
    if problems:
        raise FormatError(f"{where}: " + "; ".join(problems))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


# ---------------------------------------------------------------------------
# Instances


def instance_to_obj(instance: Instance) -> Dict[str, Any]:
    """Plain-data form of an instance, in stable key and entry order."""
    names = [t.name for t in instance.tables]
    if len(set(names)) != len(names):
        raise FormatError("table names must be unique to serialize an instance")
    for t in instance.tables:
        cols = [instance.attributes[a].name for a in t.attribute_ids]
        if len(set(cols)) != len(cols):
            raise FormatError(f"attribute names within table '{t.name}' must be unique")
    tnames = [t.name for t in instance.transactions]
    if len(set(tnames)) != len(tnames):
        raise FormatError("transaction names must be unique to serialize an instance")

    tables = [
        {
            "name": t.name,
            "attributes": [
                {"name": instance.attributes[a].name, "width": instance.attributes[a].width}
                for a in t.attribute_ids
            ],
        }
        for t in instance.tables
    ]
    transactions = [
        {
            "name": tr.name,
            "queries": [
                {
                    "name": q.name,
                    "kind": q.kind,
                    "frequency": q.frequency,
                    "rows": {
                        instance.tables[tid].name: q.rows_per_table[tid]
                        for tid in sorted(q.rows_per_table)
                    },
                    "attributes": [
                        _attr_ref(instance, a) for a in sorted(q.accessed_attributes)
                    ],
                }
                for q in (instance.queries[qid] for qid in tr.query_ids)
            ],
        }
        for tr in instance.transactions
    ]
    config: Dict[str, Any] = {
        "sites": instance.site_count,
        "p": instance.network_penalty,
        "lambda": instance.cost_weight,
    }
    if instance.latency_penalty is not None:
        config["p_latency"] = instance.latency_penalty
    return {"tables": tables, "transactions": transactions, "config": config}


def serialize_instance(instance: Instance) -> str:
    return json.dumps(instance_to_obj(instance), indent=2) + "\n"


def instance_from_obj(obj: Any) -> Instance:
    """Build and validate an Instance from plain data; strict on shape."""
    _expect_keys(obj, {"tables", "transactions", "config"}, set(), "instance")
    _expect(isinstance(obj["tables"], list) and obj["tables"], "instance: 'tables' must be a nonempty array")
    _expect(
        isinstance(obj["transactions"], list) and obj["transactions"],
        "instance: 'transactions' must be a nonempty array",
    )

    tables: List[Table] = []
    attributes: List[Attribute] = []
    ref_to_id: Dict[str, int] = {}
    table_id_by_name: Dict[str, int] = {}
    for ti, tobj in enumerate(obj["tables"]):
        _expect_keys(tobj, {"name", "attributes"}, set(), f"tables[{ti}]")
        name = tobj["name"]
        _expect(isinstance(name, str) and name, f"tables[{ti}]: name must be a nonempty string")
        _expect(name not in table_id_by_name, f"duplicate table name '{name}'")
        _expect(
            isinstance(tobj["attributes"], list) and tobj["attributes"],
            f"table '{name}': 'attributes' must be a nonempty array",
        )
        table_id_by_name[name] = ti
        members = []
        for ai, aobj in enumerate(tobj["attributes"]):
            _expect_keys(aobj, {"name", "width"}, set(), f"table '{name}' attributes[{ai}]")
            aname = aobj["name"]
            _expect(
                isinstance(aname, str) and aname,
                f"table '{name}' attributes[{ai}]: name must be a nonempty string",
            )
            width = aobj["width"]
            _expect(
                isinstance(width, int) and not isinstance(width, bool),
                f"attribute '{name}.{aname}': width must be an integer",
            )
            ref = f"{name}.{aname}"
            _expect(ref not in ref_to_id, f"duplicate attribute '{ref}'")
            aid = len(attributes)
            ref_to_id[ref] = aid
            attributes.append(Attribute(id=aid, table_id=ti, name=aname, width=width))
            members.append(aid)
        tables.append(Table(id=ti, name=name, attribute_ids=tuple(members)))

    queries: List[Query] = []
    transactions: List[Transaction] = []
    seen_txn = set()
    for xi, xobj in enumerate(obj["transactions"]):
        _expect_keys(xobj, {"name", "queries"}, set(), f"transactions[{xi}]")
        xname = xobj["name"]
        _expect(isinstance(xname, str) and xname, f"transactions[{xi}]: name must be a nonempty string")
        _expect(xname not in seen_txn, f"duplicate transaction name '{xname}'")
        seen_txn.add(xname)
        _expect(
            isinstance(xobj["queries"], list) and xobj["queries"],
            f"transaction '{xname}': 'queries' must be a nonempty array",
        )
        qids = []
        for qi, qobj in enumerate(xobj["queries"]):
            where = f"transaction '{xname}' queries[{qi}]"
            _expect_keys(qobj, {"name", "kind", "frequency", "rows", "attributes"}, set(), where)
            _expect(isinstance(qobj["name"], str) and qobj["name"], f"{where}: name must be a nonempty string")
            _expect(qobj["kind"] in ("read", "write"), f"{where}: kind must be 'read' or 'write'")
            freq = qobj["frequency"]
            _expect(
                isinstance(freq, (int, float)) and not isinstance(freq, bool),
                f"{where}: frequency must be a number",
            )
            _expect(isinstance(qobj["rows"], Mapping), f"{where}: 'rows' must be an object")
            rows = {}
            for tname, val in qobj["rows"].items():
                _expect(tname in table_id_by_name, f"{where}: rows names unknown table '{tname}'")
                _expect(
                    isinstance(val, (int, float)) and not isinstance(val, bool),
                    f"{where}: rows['{tname}'] must be a number",
                )
                rows[table_id_by_name[tname]] = val
            _expect(
                isinstance(qobj["attributes"], list) and qobj["attributes"],
                f"{where}: 'attributes' must be a nonempty array",
            )
            accessed = set()
            for ref in qobj["attributes"]:
                _expect(isinstance(ref, str), f"{where}: attribute refs must be strings")
                _expect(ref in ref_to_id, f"{where}: unknown attribute '{ref}'")
                _expect(ref_to_id[ref] not in accessed, f"{where}: attribute '{ref}' listed twice")
                accessed.add(ref_to_id[ref])
            qid = len(queries)
            queries.append(
                Query(
                    id=qid,
                    name=qobj["name"],
                    kind=qobj["kind"],
                    frequency=float(freq),
                    accessed_attributes=frozenset(accessed),
                    rows_per_table=rows,
                )
            )
            qids.append(qid)
        transactions.append(Transaction(id=xi, name=xname, query_ids=tuple(qids)))

    cobj = obj["config"]
    _expect_keys(cobj, {"sites", "p", "lambda"}, {"p_latency"}, "config")
    sites = cobj["sites"]
    _expect(isinstance(sites, int) and not isinstance(sites, bool), "config: sites must be an integer")
    for key in ("p", "lambda") + (("p_latency",) if "p_latency" in cobj else ()):
        _expect(
            isinstance(cobj[key], (int, float)) and not isinstance(cobj[key], bool),
            f"config: {key} must be a number",
        )

    instance = Instance(
        tables=tuple(tables),
        attributes=tuple(attributes),
        queries=tuple(queries),
        transactions=tuple(transactions),
        site_count=sites,
        network_penalty=float(cobj["p"]),
        cost_weight=float(cobj["lambda"]),
        latency_penalty=float(cobj["p_latency"]) if "p_latency" in cobj else None,
    )
    problems = validate(instance)
    if problems:
        raise ValidationError(problems)
    return instance


def parse_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"instance document is not valid JSON: {exc}") from exc
    return instance_from_obj(obj)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(instance))


def fingerprint_instance(instance: Instance) -> str:
    """Content hash, stable across whitespace and key-order variations."""
    canonical = json.dumps(instance_to_obj(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Partitionings


def partitioning_to_obj(instance: Instance, partitioning: Partitioning) -> Dict[str, Any]:
    x = {
        instance.transactions[t].name: int(partitioning.txn_site[t])
        for t in range(instance.transaction_count)
    }
    y = {
        _attr_ref(instance, a): [int(s) for s in np.flatnonzero(partitioning.replica[a])]
        for a in range(instance.attribute_count)
    }
    return {"x": x, "y": y}


def serialize_partitioning(instance: Instance, partitioning: Partitioning) -> str:
    return json.dumps(partitioning_to_obj(instance, partitioning), indent=2) + "\n"


def partitioning_from_obj(instance: Instance, obj: Any) -> Partitioning:
    _expect_keys(obj, {"x", "y"}, set(), "partitioning")
    _expect(isinstance(obj["x"], Mapping), "partitioning: 'x' must be an object")
    _expect(isinstance(obj["y"], Mapping), "partitioning: 'y' must be an object")

    txn_by_name = {tr.name: tr.id for tr in instance.transactions}
    ref_to_id = {
        _attr_ref(instance, a.id): a.id for a in instance.attributes
    }

    txn_site = np.zeros(instance.transaction_count, dtype=np.int64)
    seen = set()
    for name, site in obj["x"].items():
        _expect(name in txn_by_name, f"partitioning: unknown transaction '{name}'")
        _expect(
            isinstance(site, int) and not isinstance(site, bool),
            f"partitioning: site of '{name}' must be an integer",
        )
        _expect(
            0 <= site < instance.site_count,
            f"partitioning: site {site} of '{name}' outside 0..{instance.site_count - 1}",
        )
        txn_site[txn_by_name[name]] = site
        seen.add(name)
    missing = sorted(set(txn_by_name) - seen)
    _expect(not missing, f"partitioning: transactions without a site: {missing}")

    replica = np.zeros((instance.attribute_count, instance.site_count), dtype=np.bool_)
    seen_refs = set()
    for ref, sites in obj["y"].items():
        _expect(ref in ref_to_id, f"partitioning: unknown attribute '{ref}'")
        _expect(isinstance(sites, list), f"partitioning: sites of '{ref}' must be an array")
        for site in sites:
            _expect(
                isinstance(site, int) and not isinstance(site, bool),
                f"partitioning: sites of '{ref}' must be integers",
            )
            _expect(
                0 <= site < instance.site_count,
                f"partitioning: site {site} of '{ref}' outside 0..{instance.site_count - 1}",
            )
            replica[ref_to_id[ref], site] = True
        seen_refs.add(ref)
    missing_refs = sorted(set(ref_to_id) - seen_refs)
    _expect(not missing_refs, f"partitioning: attributes without sites: {missing_refs}")

    return Partitioning(txn_site=txn_site, replica=replica)


def parse_partitioning(instance: Instance, text: str) -> Partitioning:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"partitioning document is not valid JSON: {exc}") from exc
    return partitioning_from_obj(instance, obj)


def load_partitioning(instance: Instance, path: str) -> Partitioning:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_partitioning(instance, fh.read())


def save_partitioning(instance: Instance, partitioning: Partitioning, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_partitioning(instance, partitioning))
