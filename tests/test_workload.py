"""Instance validation and derived coefficient matrices."""
from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from vpadvisor import (
    Attribute,
    Instance,
    Query,
    Table,
    Transaction,
    ValidationError,
    derive,
    lint,
    tpcc,
    validate,
)

from conftest import (
    oracle_flags,
    overflow_instance,
    random_instance,
    t1_instance,
    t2_instance,
)


def test_t1_shape_and_validation(t1):
    assert validate(t1) == []
    assert t1.attribute_count == 2
    assert t1.transaction_count == 1
    assert t1.query_count == 1
    assert t1.site_count == 2


def test_width_zero_rejected():
    inst = Instance(
        tables=(Table(0, "R", (0,)),),
        attributes=(Attribute(0, 0, "a", 0),),
        queries=(Query(0, "q", "read", 1.0, (0,), {0: 1}),),
        transactions=(Transaction(0, "t", (0,)),),
        site_count=1,
    )
    problems = validate(inst)
    assert len(problems) == 1
    assert "width" in problems[0]


_NON_FINITE = {
    "frequency": lambda inst: replace(
        inst, queries=(replace(inst.queries[0], frequency=math.inf),)),
    "rows": lambda inst: replace(
        inst, queries=(replace(inst.queries[0], rows_per_table={0: math.inf}),)),
    "network_penalty": lambda inst: replace(inst, network_penalty=math.inf),
    "latency_penalty": lambda inst: replace(inst, latency_penalty=math.inf),
}


@pytest.mark.parametrize("field", sorted(_NON_FINITE))
def test_non_finite_inputs_are_rejected(t1, field):
    problems = validate(_NON_FINITE[field](t1))
    assert len(problems) == 1
    assert "finite" in problems[0]


def test_validation_catches_cross_reference_problems():
    # query touching an attribute whose table has no rows statistic
    inst = Instance(
        tables=(Table(0, "R", (0,)), Table(1, "S", (1,))),
        attributes=(Attribute(0, 0, "a", 4), Attribute(1, 1, "b", 4)),
        queries=(Query(0, "q", "read", 1.0, (0, 1), {0: 1}),),
        transactions=(Transaction(0, "t", (0,)),),
        site_count=2,
    )
    assert validate(inst)


def test_query_without_transaction_is_flagged():
    inst = Instance(
        tables=(Table(0, "R", (0,)),),
        attributes=(Attribute(0, 0, "a", 4),),
        queries=(
            Query(0, "q0", "read", 1.0, (0,), {0: 1}),
            Query(1, "q1", "read", 1.0, (0,), {0: 1}),
        ),
        transactions=(Transaction(0, "t", (0,)),),
        site_count=1,
    )
    assert validate(inst)


def test_t1_weights_and_flags(t1):
    model = derive(t1)
    alpha, beta, gamma, delta, weight = oracle_flags(t1)
    # W(a1,q1)=4*10*2=80, W(a2,q1)=8*10*2=160; a2 is table-covered, not accessed
    assert weight[0, 0] == 80.0
    assert weight[1, 0] == 160.0
    assert alpha[1, 0] == 0.0
    assert beta[1, 0] == 1.0
    # the weights reach the read-load coefficients of the only transaction
    np.testing.assert_allclose(model.coloc_load, (weight * beta * (1.0 - delta)) @ gamma)


def test_t2_folded_coefficients(t2):
    model = derive(t2)
    # write with p=8: c1 = -p*W = -32, c2 = W*(1+p) = 36, c3 = 0, c4 = W = 4
    assert model.coloc_cost[0, 0] == pytest.approx(-32.0)
    assert model.replica_cost[0] == pytest.approx(36.0)
    assert model.coloc_load[0, 0] == pytest.approx(0.0)
    assert model.replica_load[0] == pytest.approx(4.0)


def test_t1_folded_coefficients(t1):
    model = derive(t1)
    # pure reads: c1 = c3 = W per (a, t); c2 = c4 = 0
    assert model.coloc_cost[0, 0] == pytest.approx(80.0)
    assert model.coloc_cost[1, 0] == pytest.approx(160.0)
    np.testing.assert_allclose(model.coloc_cost, model.coloc_load)
    np.testing.assert_allclose(model.replica_cost, 0.0)
    np.testing.assert_allclose(model.replica_load, 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_folded_coefficients_match_definitional_sums(seed):
    inst = random_instance(seed)
    model = derive(inst)
    alpha, beta, gamma, delta, weight = oracle_flags(inst)
    p = inst.network_penalty
    n_a, n_t = inst.attribute_count, inst.transaction_count
    c1 = np.zeros((n_a, n_t))
    c3 = np.zeros((n_a, n_t))
    for a in range(n_a):
        for t in range(n_t):
            for q in range(inst.query_count):
                c1[a, t] += weight[a, q] * gamma[q, t] * (
                    beta[a, q] * (1 - delta[q]) - p * alpha[a, q] * delta[q]
                )
                c3[a, t] += weight[a, q] * gamma[q, t] * beta[a, q] * (1 - delta[q])
    c2 = (weight * delta * (beta + p * alpha)).sum(axis=1)
    c4 = (weight * delta * beta).sum(axis=1)
    np.testing.assert_allclose(model.coloc_cost, c1, atol=1e-9)
    np.testing.assert_allclose(model.replica_cost, c2, atol=1e-9)
    np.testing.assert_allclose(model.coloc_load, c3, atol=1e-9)
    np.testing.assert_allclose(model.replica_load, c4, atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_coefficient_identity_links_cost_and_load(seed):
    # c1(a,t) + p * sum_q W*gamma*alpha*delta == c3(a,t)
    inst = random_instance(seed)
    model = derive(inst)
    alpha, beta, gamma, delta, weight = oracle_flags(inst)
    correction = np.einsum("aq,qt,aq,q->at", weight, gamma, alpha, delta)
    np.testing.assert_allclose(
        model.coloc_cost + inst.network_penalty * correction,
        model.coloc_load,
        atol=1e-9,
    )


def _fractional(seed: int, network_penalty: float) -> Instance:
    """A random instance with non-integer frequencies and row counts, and
    widths that are not powers of two."""
    inst = random_instance(seed, site_count=2 + seed % 2, network_penalty=network_penalty,
                           update_percent=40.0, table_count=4, max_attributes_per_table=5,
                           allowed_widths=(3, 5, 12))
    queries = tuple(
        replace(q, frequency=(q.id % 5 + 1) / 3,
                rows_per_table={t: r * 1.1 + 0.05 * q.id for t, r in q.rows_per_table.items()})
        for q in inst.queries
    )
    return replace(inst, queries=queries)


DERIVE_PENALTIES = (0.0, 3.3, 1e16, float(2**53 + 7))
DERIVE_INSTANCES = {
    "tpcc-2": lambda: tpcc(site_count=2),
    "tpcc-3": lambda: tpcc(site_count=3),
    "tpcc-2-latency": lambda: tpcc(site_count=2, latency_penalty=5.0),
    "tpcc-3-latency": lambda: tpcc(site_count=3, latency_penalty=5.0),
    **{
        f"fractional-{seed}": (lambda seed=seed: _fractional(seed, DERIVE_PENALTIES[seed % 4]))
        for seed in range(8)
    },
}
# sha256 prefixes of every CostModel array's dtype, shape and bytes.  The
# arrays read neither the site count nor the latency penalty, so the four
# TPC-C instances share one digest.
DERIVE_DIGESTS = {
    "tpcc-2": "c5dbb3beb3394cf8",
    "tpcc-3": "c5dbb3beb3394cf8",
    "tpcc-2-latency": "c5dbb3beb3394cf8",
    "tpcc-3-latency": "c5dbb3beb3394cf8",
    "fractional-0": "4de5235545fafc48",
    "fractional-1": "5cd5f29ebc703f51",
    "fractional-2": "7b991044752504e0",
    "fractional-3": "1a1a12c455e3dfa0",
    "fractional-4": "3f6c3c0910e170e9",
    "fractional-5": "0f46fe21b61493c9",
    "fractional-6": "03cd855a877b57a8",
    "fractional-7": "04a4f0d55a86dbc5",
}


@pytest.mark.parametrize("name", list(DERIVE_INSTANCES))
def test_derive_bits_are_pinned(name):
    # a change to the arithmetic or its order that moves any bit moves the digest
    model = derive(DERIVE_INSTANCES[name]())
    digest = hashlib.sha256()
    for field in dataclasses.fields(model):
        arr = getattr(model, field.name)
        digest.update(f"{field.name} {arr.dtype} {arr.shape}\n".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest()[:16] == DERIVE_DIGESTS[name]


def test_reads_matrix_reflects_read_queries_only(t2):
    model = derive(t2)
    # t2's only query is a write: nothing forces co-location
    assert not model.txn_reads.any()
    model1 = derive(t1_instance())
    assert model1.txn_reads[0, 0]
    assert not model1.txn_reads[1, 0]


def test_derive_rejects_costs_that_overflow():
    inst = overflow_instance()
    assert validate(inst) == []
    with pytest.raises(ValidationError, match="overflow"):
        derive(inst)
    latency = replace(t2_instance(), latency_penalty=1e300,
                      queries=(replace(t2_instance().queries[0], frequency=1e10),))
    with pytest.raises(ValidationError, match="overflow"):
        derive(latency)
    derive(replace(latency, latency_penalty=1e290))


def test_lint_flags_blind_writes_without_failing_validation(t1, t2):
    # t2 writes table S without ever reading it: advisory only
    assert validate(t2) == []
    notes = lint(t2)
    assert any("never reads" in note for note in notes)
    # t1 is read-only and clean
    assert lint(t1) == []


def test_derive_rejects_invalid_instance():
    inst = Instance(
        tables=(Table(0, "R", (0,)),),
        attributes=(Attribute(0, 0, "a", 0),),
        queries=(Query(0, "q", "read", 1.0, (0,), {0: 1}),),
        transactions=(Transaction(0, "t", (0,)),),
        site_count=1,
    )
    with pytest.raises(Exception):
        derive(inst)
