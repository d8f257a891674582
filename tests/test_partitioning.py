"""Layout pricing: full evaluator, folded form, feasibility."""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from vpadvisor import (
    Partitioning,
    check_feasible,
    derive,
    evaluate,
    tpcc,
    weighted_score,
)

from conftest import folded_price, oracle_cost, random_instance, random_partitioning


def _single_site(instance, site=0):
    replica = np.zeros((instance.attribute_count, instance.site_count), dtype=bool)
    replica[:, site] = True
    return Partitioning(
        txn_site=np.full(instance.transaction_count, site, dtype=np.int64),
        replica=replica,
    )


def test_partitioning_copies_the_arrays_it_freezes():
    x = np.array([0, 1, 1], dtype=np.int64)
    y = np.array([[True, False], [False, True]])
    part = Partitioning(x, y)
    assert not part.txn_site.flags.writeable and not part.replica.flags.writeable
    assert x.flags.writeable and y.flags.writeable
    x[0] = 1
    y[0, 1] = True
    assert part.txn_site.tolist() == [0, 1, 1]
    assert part.replica.tolist() == [[True, False], [False, True]]


def test_t1_single_site_counts_whole_table_width(t1):
    model = derive(t1)
    breakdown = evaluate(t1, model, _single_site(t1))
    assert breakdown.read_access == pytest.approx(240.0)
    assert breakdown.write_access == 0.0
    assert breakdown.transfer == 0.0
    assert breakdown.objective == pytest.approx(240.0)
    assert breakdown.score == pytest.approx(240.0)


def test_t1_split_is_optimal(t1):
    model = derive(t1)
    part = Partitioning(
        txn_site=np.array([0]),
        replica=np.array([[True, False], [False, True]]),
    )
    breakdown = evaluate(t1, model, part)
    assert breakdown.objective == pytest.approx(80.0)
    assert breakdown.score == pytest.approx(80.0)
    assert list(breakdown.site_loads) == pytest.approx([80.0, 0.0])


def test_t2_replication_prices_write_fanout(t2):
    model = derive(t2)
    both = Partitioning(txn_site=np.array([0]), replica=np.array([[True, True]]))
    one = Partitioning(txn_site=np.array([0]), replica=np.array([[True, False]]))
    b_both = evaluate(t2, model, both)
    b_one = evaluate(t2, model, one)
    assert b_both.write_access == pytest.approx(8.0)
    assert b_both.transfer == pytest.approx(4.0)
    assert b_both.objective == pytest.approx(40.0)
    assert b_one.objective == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_matches_definitional_oracle(seed):
    inst = random_instance(seed, site_count=2 + seed % 2)
    model = derive(inst)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        part = random_partitioning(inst, rng)
        got = evaluate(inst, model, part)
        want = oracle_cost(inst, part)
        assert got.read_access == pytest.approx(want["read_access"], abs=1e-9)
        assert got.write_access == pytest.approx(want["write_access"], abs=1e-9)
        assert got.transfer == pytest.approx(want["transfer"], abs=1e-9)
        assert got.objective == pytest.approx(want["objective"], abs=1e-9)
        np.testing.assert_allclose(got.site_loads, want["loads"], atol=1e-9)
        assert got.score == pytest.approx(want["score"], abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_latency_charge_matches_oracle(seed):
    inst = random_instance(seed, site_count=2, latency_penalty=5.0, update_percent=60.0)
    model = derive(inst)
    rng = np.random.default_rng(seed)
    part = random_partitioning(inst, rng)
    got = evaluate(inst, model, part)
    want = oracle_cost(inst, part)
    assert (got.latency is None) == (want["latency"] is None)
    if got.latency is not None:
        assert got.latency == pytest.approx(want["latency"], abs=1e-9)
        assert got.score == pytest.approx(want["score"], abs=1e-9)


def test_objective_excludes_latency_but_score_includes_it():
    inst = random_instance(0, latency_penalty=100.0, update_percent=100.0)
    model = derive(inst)
    part = _single_site(inst)
    with_lat = evaluate(inst, model, part)
    base = random_instance(0, update_percent=100.0)
    without = evaluate(base, derive(base), part)
    assert with_lat.objective == pytest.approx(without.objective)
    assert with_lat.latency == 0.0  # single site: no write sees a remote replica
    grown = part.replica.copy()
    grown[0, 1] = True
    spread = Partitioning(txn_site=part.txn_site, replica=grown)
    lat_spread = evaluate(inst, model, spread)
    plain_spread = evaluate(base, derive(base), spread)
    assert lat_spread.objective == pytest.approx(plain_spread.objective)
    if lat_spread.latency:
        assert lat_spread.score > plain_spread.score


def test_weighted_score_formula():
    assert weighted_score(100.0, 40.0, None, 0.25) == pytest.approx(0.25 * 100 + 0.75 * 40)
    assert weighted_score(100.0, 40.0, None, 1.0) == pytest.approx(100.0)
    assert weighted_score(100.0, 40.0, None, 0.0) == pytest.approx(40.0)
    # latency is charged alongside the objective, weighted by lambda
    assert weighted_score(100.0, 40.0, 20.0, 0.25) == pytest.approx(
        0.25 * 120 + 0.75 * 40
    )


PIN_SHAPE = dict(transaction_count=8, table_count=5, max_attributes_per_table=6)
PIN_INSTANCES = {
    "tpcc-3-latency": lambda: tpcc(site_count=3, latency_penalty=5.0),
    "random-p1": lambda: random_instance(
        21, site_count=3, network_penalty=1.0, latency_penalty=1.0, update_percent=50.0,
        **PIN_SHAPE),
    "random-p1e6": lambda: random_instance(
        22, site_count=3, network_penalty=1e6, latency_penalty=1e6, update_percent=50.0,
        **PIN_SHAPE),
}
# sha256 prefixes of float.hex of every CostBreakdown field, over six
# layouts per instance: the single-site one and five random ones
PIN_DIGESTS = {
    "tpcc-3-latency": "f23a1d05832ecf21",
    "random-p1": "d4fb19dba405dd8a",
    "random-p1e6": "2fb49ef03983247c",
}


@pytest.mark.parametrize("name", list(PIN_INSTANCES))
def test_evaluate_bits_are_pinned(name):
    # any change to the arithmetic or its order moves the digest
    inst = PIN_INSTANCES[name]()
    model = derive(inst)
    rng = np.random.default_rng(0)
    layouts = [_single_site(inst)] + [random_partitioning(inst, rng) for _ in range(5)]
    lines = []
    for part in layouts:
        for key, value in dataclasses.asdict(evaluate(inst, model, part)).items():
            values = value if isinstance(value, tuple) else (value,)
            lines.append(key + " " + " ".join(float.hex(v) for v in values))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == PIN_DIGESTS[name]


# ---------------------------------------------------------------------------
# folded form


@pytest.mark.parametrize("seed", range(20))
def test_folded_objective_equals_full_objective(seed):
    inst = random_instance(seed, site_count=2 + seed % 2)
    model = derive(inst)
    rng = np.random.default_rng(seed * 7 + 1)
    for _ in range(10):
        part = random_partitioning(inst, rng)
        full = evaluate(inst, model, part)
        objective, score = folded_price(inst, model, part)
        # integral inputs: exact equality of the two computation routes
        assert objective == full.objective
        assert score == full.score


# ---------------------------------------------------------------------------
# feasibility checking


def test_check_feasible_accepts_valid_layout(t1):
    model = derive(t1)
    part = Partitioning(
        txn_site=np.array([0]), replica=np.array([[True, False], [False, True]])
    )
    assert check_feasible(t1, model, part) == []


def test_check_feasible_rejects_uncovered_read(t1):
    model = derive(t1)
    part = Partitioning(
        txn_site=np.array([1]), replica=np.array([[True, False], [False, True]])
    )
    violations = check_feasible(t1, model, part)
    assert violations
    assert any("a1" in v or "t1" in v for v in violations)


def test_check_feasible_rejects_empty_replica_row(t1):
    model = derive(t1)
    part = Partitioning(
        txn_site=np.array([0]), replica=np.array([[True, False], [False, False]])
    )
    assert check_feasible(t1, model, part)


def test_check_feasible_rejects_out_of_range_site(t1):
    model = derive(t1)
    part = Partitioning(
        txn_site=np.array([5]), replica=np.array([[True, False], [True, False]])
    )
    assert check_feasible(t1, model, part)


def _reference_violations(instance, model, partitioning):
    """The per-transaction loops check_feasible ran before it built its
    messages from masks (shape checks left out: the layouts below fit)."""
    out = []
    n_s = instance.site_count

    def attr_ref(a):
        attr = instance.attributes[a]
        return f"{instance.tables[attr.table_id].name}.{attr.name}"

    for t in range(instance.transaction_count):
        s = int(partitioning.txn_site[t])
        if not (0 <= s < n_s):
            out.append(
                f"transaction '{instance.transactions[t].name}' assigned to "
                f"site {s}, outside 0..{n_s - 1}")
    for a in np.flatnonzero(~partitioning.replica.any(axis=1)):
        out.append(f"attribute '{attr_ref(int(a))}' is placed on no site")
    for t in range(instance.transaction_count):
        s = int(partitioning.txn_site[t])
        if not (0 <= s < n_s):
            continue
        for a in np.flatnonzero(model.txn_reads[:, t] & ~partitioning.replica[:, s]):
            out.append(
                f"attribute '{attr_ref(int(a))}' is read by transaction "
                f"'{instance.transactions[t].name}' but has no replica on its site {s}")
    return out


@pytest.mark.parametrize("seed", range(6))
def test_check_feasible_messages_match_reference_loops(seed):
    # sites drawn from -1..3 on 3 sites, sparse replica matrices with empty
    # rows, and missing reads: every kind of violation, in every order
    inst = random_instance(seed, site_count=3)
    model = derive(inst)
    rng = np.random.default_rng(seed + 40)
    kinds = set()
    for _ in range(300):
        part = Partitioning(
            txn_site=rng.integers(-1, 4, inst.transaction_count),
            replica=rng.random((inst.attribute_count, 3)) < rng.uniform(0.1, 0.9),
        )
        want = _reference_violations(inst, model, part)
        assert check_feasible(inst, model, part) == want
        kinds.update(kind for kind in ("outside", "on no site", "no replica")
                     for message in want if kind in message)
    assert kinds == {"outside", "on no site", "no replica"}
