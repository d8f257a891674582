"""Memory that model assembly and export use, per matrix nonzero.

The full program has one ``u[t,a,s]`` column per triple, so its size
grows with |T|·|A|·|S|; these bounds catch a builder or writer that
goes back to holding extra copies of the entries or per-row fields for
every row at once.  Each bound is the ``tracemalloc`` peak measured on
the instance below (numpy 2.4, scipy 1.17) plus a stated margin.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from vpadvisor import GenParams, build_mip, export_model, generate
from vpadvisor import program

# Measured 42.4 bytes per nonzero (the model itself and the builder's
# transient); the int64 builder that kept its block parts took 86.0.
BUILD_BYTES_PER_NONZERO = 42.4 * 1.15
# Measured with 1,024-line windows, so the window's own block stays small
# beside the model: 19.3 (free MPS) and 54.5 (LP) bytes per nonzero.
# Naming every row at once took free MPS to 44.0.
EXPORT_BYTES_PER_NONZERO = {"mps": 19.3 * 1.25, "lp": 54.5 * 1.15}


class _Discard:
    """A text sink that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)


def _peak(fn, *args):
    """``fn(*args)`` and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def instance():
    return generate(
        GenParams(transaction_count=20, table_count=14, max_attributes_per_table=15,
                  update_percent=10.0, seed=3),
        site_count=4, network_penalty=8.0, cost_weight=0.1,
    )


def test_build_mip_peak_per_nonzero(instance):
    model, peak = _peak(build_mip, instance)
    assert model.matrix.nnz > 90_000
    assert model.matrix.indptr.dtype == np.int32
    assert model.matrix.indices.dtype == np.int32
    assert peak / model.matrix.nnz <= BUILD_BYTES_PER_NONZERO


@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_export_model_peak_per_nonzero(fmt, instance, monkeypatch):
    model = build_mip(instance)
    monkeypatch.setattr(program, "EXPORT_CHUNK_LINES", 1024)
    _, peak = _peak(export_model, model, fmt, _Discard())
    assert peak / model.matrix.nnz <= EXPORT_BYTES_PER_NONZERO[fmt]
