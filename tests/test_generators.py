"""Random instance generation: determinism, validity, parameter effects."""
from __future__ import annotations

import numpy as np
import pytest

from vpadvisor import GenParams, ValidationError, generate, validate

from conftest import oracle_flags


def test_generate_is_deterministic():
    params = GenParams(seed=42)
    a = generate(params)
    b = generate(params)
    assert a == b


def test_different_seeds_differ():
    a = generate(GenParams(seed=1))
    b = generate(GenParams(seed=2))
    assert a != b


@pytest.mark.parametrize("seed", range(20))
def test_generated_instances_validate(seed):
    inst = generate(
        GenParams(
            transaction_count=5,
            table_count=4,
            max_queries_per_transaction=3,
            update_percent=25.0,
            max_attributes_per_table=6,
            seed=seed,
        ),
        site_count=3,
    )
    assert validate(inst) == []


def test_counts_match_parameters():
    params = GenParams(transaction_count=7, table_count=5, seed=0)
    inst = generate(params)
    assert inst.transaction_count == 7
    assert len(inst.tables) == 5
    per_txn = [len(t.query_ids) for t in inst.transactions]
    assert all(1 <= n <= params.max_queries_per_transaction for n in per_txn)
    per_table = [len(t.attribute_ids) for t in inst.tables]
    assert all(1 <= n <= params.max_attributes_per_table for n in per_table)


def test_widths_come_from_menu():
    inst = generate(GenParams(allowed_widths=(3, 5, 11), seed=8))
    assert {a.width for a in inst.attributes} <= {3, 5, 11}


def test_update_percent_zero_yields_read_only():
    inst = generate(GenParams(update_percent=0.0, seed=3))
    assert all(not q.is_write for q in inst.queries)


def test_update_percent_hundred_yields_write_only():
    inst = generate(GenParams(update_percent=100.0, seed=3))
    assert all(q.is_write for q in inst.queries)


def test_update_percent_statistics():
    # across many queries the write share approaches the parameter
    writes = total = 0
    for seed in range(30):
        inst = generate(GenParams(update_percent=30.0, transaction_count=10, seed=seed))
        writes += sum(q.is_write for q in inst.queries)
        total += inst.query_count
    share = writes / total
    # binomial(n~600, 0.3): 4 standard deviations ~ 0.075
    assert abs(share - 0.30) < 0.075


def test_attribute_count_statistics():
    # attributes per table are uniform on [1, 15]: mean 8
    counts = []
    for seed in range(100):
        inst = generate(GenParams(table_count=10, seed=seed))
        counts.extend(len(t.attribute_ids) for t in inst.tables)
    mean = float(np.mean(counts))
    # uniform(1..15): sd ~ 4.32; 1000 samples => se ~ 0.137; allow 4 se
    assert abs(mean - 8.0) < 0.55


def test_rows_only_for_touched_tables():
    inst = generate(GenParams(seed=5))
    for q in inst.queries:
        touched = {inst.attributes[a].table_id for a in q.accessed_attributes}
        assert set(q.rows_per_table) == touched
        assert all(1 <= r <= 10 for r in q.rows_per_table.values())


def test_table_refs_bounded():
    params = GenParams(max_table_refs_per_query=2, seed=6)
    inst = generate(params)
    for q in inst.queries:
        assert len(q.rows_per_table) <= 2


def test_attribute_refs_bounded():
    params = GenParams(max_attribute_refs_per_query=3, seed=7)
    inst = generate(params)
    for q in inst.queries:
        assert 1 <= len(q.accessed_attributes) <= 3


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        GenParams(max_attributes_per_table=0)
    with pytest.raises(ValueError):
        GenParams(transaction_count=0)
    with pytest.raises(ValueError):
        GenParams(update_percent=101.0)
    with pytest.raises(ValueError):
        GenParams(allowed_widths=())
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        GenParams(seed=-1)
    with pytest.raises(ValidationError, match="site count"):
        generate(GenParams(), site_count=0)


def test_beta_covers_alpha_on_generated_instances():
    inst = generate(GenParams(seed=11))
    alpha, beta, *_ = oracle_flags(inst)
    assert ((alpha == 1) <= (beta == 1)).all()
