import numpy as np
import pytest

from e2e_bench.gen import make_pool, reference
from e2e_bench.spec import POOL_SETS, WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_pool_is_byte_identical_for_a_seed_and_differs_across_seeds(workload):
    a, b, other = (make_pool(workload, s) for s in (7, 7, 8))
    assert len(a) == POOL_SETS
    for set_a, set_b, set_o in zip(a, b, other):
        assert len(set_a) == workload.n_ranks
        for x, y, z in zip(set_a, set_b, set_o):
            assert x.dtype == np.float32 and x.shape == (workload.elements,)
            assert x.tobytes() == y.tobytes()
            assert x.tobytes() != z.tobytes()


def test_sets_and_ranks_of_a_pool_are_distinct():
    pool = make_pool(WORKLOADS[0], 0)
    blobs = {a.tobytes() for arrays in pool for a in arrays}
    assert len(blobs) == POOL_SETS * WORKLOADS[0].n_ranks


def test_dense_has_no_constant_block_and_quiet_is_mostly_constant():
    by_name = {w.name: w for w in WORKLOADS}
    dense = make_pool(by_name["sim-large-dense"], 0)[0][0]
    quiet = make_pool(by_name["sim-large-quiet"], 0)[0][0]
    # a 32-block is constant for the compressor when its quantised values
    # do not move; exact equality is the stricter test and enough here
    assert np.ptp(dense.reshape(-1, 32), axis=1).min() > 0
    constant = np.ptp(quiet.reshape(-1, 32), axis=1) == 0
    assert 0.5 < constant.mean() < 0.9


def test_reference_is_the_float64_sum():
    arrays = [np.full(4, 0.1, dtype=np.float32) for _ in range(3)]
    ref = reference(arrays)
    assert ref.dtype == np.float64
    np.testing.assert_allclose(ref, 3 * np.float64(np.float32(0.1)))
