"""Cross-validation: message-level collectives vs round-synchronous ones."""

import numpy as np
import pytest

from repro.collectives import (
    FAMILIES,
    p2p_allreduce,
    p2p_hzccl_allreduce,
    p2p_reduce_scatter,
    run,
)
from repro.core.config import CollectiveConfig
from repro.runtime.cluster import SimCluster
from repro.runtime.communicator import Communicator
from repro.runtime.network import NetworkModel

NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)


def rank_data(rng, n, size=6007):
    return [rng.normal(0, 1, size).astype(np.float32) for _ in range(n)]


class TestPlainP2P:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_reduce_scatter_matches_bulk(self, rng, n):
        local = rank_data(rng, n)
        p2p = p2p_reduce_scatter(Communicator(n, network=NET), local)
        bulk = run(FAMILIES["mpi_reduce_scatter"], SimCluster(n, network=NET), local).outputs
        for a, b in zip(p2p, bulk):
            np.testing.assert_array_equal(a, b)

    def test_allreduce_correct(self, rng):
        local = rank_data(rng, 4)
        outs = p2p_allreduce(Communicator(4, network=NET), local)
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        for out in outs:
            assert np.abs(out.astype(np.float64) - exact).max() < 1e-3

    def test_wrong_rank_count(self, rng):
        with pytest.raises(ValueError):
            p2p_reduce_scatter(Communicator(3, network=NET), rank_data(rng, 4))

    def test_no_messages_left_behind(self, rng):
        comm = Communicator(4, network=NET)
        p2p_allreduce(comm, rank_data(rng, 4))
        assert all(comm.pending(i) == 0 for i in range(4))


class TestHzcclP2P:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bitwise_matches_bulk_synchronous(self, rng, n):
        """The two formulations are independent implementations of the same
        algorithm — they must agree bit for bit."""
        local = rank_data(rng, n)
        config = CollectiveConfig(error_bound=1e-4, network=NET)
        p2p = p2p_hzccl_allreduce(Communicator(n, network=NET), local, config)
        bulk = run(FAMILIES["hzccl_allreduce"], SimCluster(n, network=NET), local, config).outputs
        for a, b in zip(p2p, bulk):
            np.testing.assert_array_equal(a, b)

    def test_all_ranks_identical(self, rng):
        local = rank_data(rng, 4)
        config = CollectiveConfig(error_bound=1e-4, network=NET)
        outs = p2p_hzccl_allreduce(Communicator(4, network=NET), local, config)
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    def test_makespan_positive_and_causal(self, rng):
        local = rank_data(rng, 4)
        config = CollectiveConfig(error_bound=1e-4, network=NET)
        comm = Communicator(4, network=NET)
        p2p_hzccl_allreduce(comm, local, config)
        # every rank participated through all rounds, so no clock is zero
        assert min(comm.clocks) > 0
        assert comm.makespan >= max(comm.clocks) - 1e-12

    def test_compressed_bytes_on_wire(self, rng):
        local = rank_data(rng, 4)
        config = CollectiveConfig(error_bound=1e-2, network=NET)
        comm = Communicator(4, network=NET)
        p2p_hzccl_allreduce(comm, local, config)
        raw = sum(a.nbytes for a in local)
        # ring allreduce moves ~2x the data; compressed must beat raw 2x
        assert sum(comm.bytes_sent) < 2 * raw
