"""Cross-family equivalence: the executor vs. the pre-refactor loops.

The fixtures under ``fixtures/`` were generated by the hand-rolled
per-family round loops (see ``make_fixtures.py``) on the same seeded
inputs.  Every family must reproduce them **bit-identically** — outputs
via ``np.array_equal`` (no tolerance) and ``bytes_on_wire`` exactly —
because the schedule-IR refactor is a control-plane change only: the
delivery order, fold arithmetic, and quantisation along the data path
are contractually unchanged.

The pipelined allreduce has no legacy fixture (no legacy family could
express it); it is pinned to the unpipelined allreduce's *accuracy*
instead, plus a property-based fold-conservation suite in
``test_properties.py``.
"""

import pathlib

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.runtime.cluster import SimCluster

from .make_fixtures import CONFIG, NET, OPS, RANK_COUNTS, make_data

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("n", RANK_COUNTS)
@pytest.mark.parametrize("name", sorted(OPS))
def test_bit_identical_to_legacy_fixture(name, n):
    fixture = np.load(FIXTURE_DIR / f"{name}_n{n}.npz")
    data = make_data(n)
    inputs = data[0] if name.endswith("bcast") else data
    result = run(FAMILIES[name], SimCluster(n, network=NET), inputs, CONFIG)
    assert result.bytes_on_wire == int(fixture["bytes_on_wire"])
    for i, out in enumerate(result.outputs):
        key = f"out_{i}"
        if out is None:
            assert key not in fixture
            continue
        assert np.array_equal(out, fixture[key]), (
            f"{name} n={n} rank {i}: output differs from the legacy loops"
        )


@pytest.mark.parametrize("n", RANK_COUNTS)
@pytest.mark.parametrize("n_chunks", [2, 3])
def test_pipelined_allreduce_matches_unpipelined_accuracy(n, n_chunks):
    """Chunking splits quantisation blocks, so outputs are not bitwise
    equal to the monolithic allreduce — but the error contract (N·eb per
    element) and the exact float reference must hold identically."""
    data = make_data(n)
    reference = np.sum(np.stack(data, dtype=np.float64), axis=0)
    result = run(
        FAMILIES["hzccl_pipelined_allreduce"], SimCluster(n, network=NET),
        data, CONFIG, chunks=n_chunks,
    )
    assert not result.degraded
    bound = n * CONFIG.error_bound * 1.0001
    for out in result.outputs:
        assert np.max(np.abs(out.astype(np.float64) - reference)) <= bound
    baseline = run(
        FAMILIES["hzccl_allreduce"], SimCluster(n, network=NET), data, CONFIG
    )
    for out, ref in zip(result.outputs, baseline.outputs):
        assert np.max(np.abs(out - ref)) <= bound
