"""Tests for Rabenseifner's recursive halving/doubling Allreduce."""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime.cluster import SimCluster
from repro.runtime.network import NetworkModel

NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)


def rank_data(rng, n, size=8003):
    return [rng.normal(0, 1, size).astype(np.float32) for _ in range(n)]


@pytest.fixture()
def config():
    return CollectiveConfig(error_bound=1e-4, network=NET)


class TestPlain:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_correct_sums(self, rng, n):
        local = rank_data(rng, n)
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        res = run(FAMILIES["rabenseifner_allreduce"], SimCluster(n, network=NET), local)
        for out in res.outputs:
            assert np.abs(out.astype(np.float64) - exact).max() < 2e-3

    def test_matches_ring_allreduce(self, rng):
        """Same reduction, different schedule: results agree to float32
        associativity noise."""
        local = rank_data(rng, 8)
        rab = run(FAMILIES["rabenseifner_allreduce"], SimCluster(8, network=NET), local)
        ring = run(FAMILIES["mpi_allreduce"], SimCluster(8, network=NET), local)
        np.testing.assert_allclose(rab.outputs[0], ring.outputs[0], rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("n", [1, 3, 6, 12])
    def test_rejects_non_power_of_two(self, rng, n):
        with pytest.raises(ValueError, match="power-of-two"):
            run(
                FAMILIES["rabenseifner_allreduce"], SimCluster(n, network=NET),
                rank_data(rng, n, 64),
            )

    def test_moves_same_volume_as_ring(self, rng):
        """Recursive halving/doubling is bandwidth-optimal too: ~2·(N−1)/N
        of the data per rank, like the ring."""
        n, size = 8, 8000
        local = rank_data(rng, n, size)
        rab = run(FAMILIES["rabenseifner_allreduce"], SimCluster(n, network=NET), local)
        ring = run(FAMILIES["mpi_allreduce"], SimCluster(n, network=NET), local)
        assert rab.bytes_on_wire == pytest.approx(ring.bytes_on_wire, rel=0.02)

    def test_fewer_rounds_less_latency(self, rng):
        """2·log2 N rounds vs 2·(N−1): with a latency-dominated network the
        Rabenseifner schedule must finish sooner."""
        n = 16
        latency_net = NetworkModel(
            latency_s=1e-3, bandwidth_Bps=1e12, congestion_per_log2=0
        )
        local = rank_data(rng, n, 1600)
        rab = run(
            FAMILIES["rabenseifner_allreduce"],
            SimCluster(n, network=latency_net), local,
        )
        ring = run(FAMILIES["mpi_allreduce"], SimCluster(n, network=latency_net), local)
        assert rab.total_time < ring.total_time


class TestHomomorphic:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_bitwise_matches_ring_hzccl(self, rng, config, n):
        """Associativity of integer addition: the compressed result is
        byte-identical no matter which schedule folded it."""
        local = rank_data(rng, n)
        rab = run(
            FAMILIES["hzccl_rabenseifner_allreduce"],
            SimCluster(n, network=NET), local, config,
        )
        ring = run(FAMILIES["hzccl_allreduce"], SimCluster(n, network=NET), local, config)
        for a, b in zip(rab.outputs, ring.outputs):
            np.testing.assert_array_equal(a, b)

    def test_buckets(self, rng, config):
        res = run(
            FAMILIES["hzccl_rabenseifner_allreduce"],
            SimCluster(4, network=NET), rank_data(rng, 4), config,
        )
        bd = res.breakdown
        assert bd.buckets["CPR"] > 0
        assert bd.buckets["HPR"] > 0
        assert bd.buckets["DPR"] > 0
        assert bd.buckets["CPT"] == 0

    def test_compressed_volume_smaller(self, rng, config):
        local = [
            np.cumsum(rng.normal(0, 0.05, 8003)).astype(np.float32) for _ in range(4)
        ]
        hz = run(
            FAMILIES["hzccl_rabenseifner_allreduce"],
            SimCluster(4, network=NET), local, config,
        )
        plain = run(FAMILIES["rabenseifner_allreduce"], SimCluster(4, network=NET), local)
        assert hz.bytes_on_wire < plain.bytes_on_wire

    def test_rejects_non_power_of_two(self, rng, config):
        with pytest.raises(ValueError, match="power-of-two"):
            run(
                FAMILIES["hzccl_rabenseifner_allreduce"],
                SimCluster(6, network=NET), rank_data(rng, 6, 64), config,
            )

    def test_pipeline_stats(self, rng, config):
        res = run(
            FAMILIES["hzccl_rabenseifner_allreduce"],
            SimCluster(4, network=NET), rank_data(rng, 4), config,
        )
        assert res.pipeline_stats is not None
        assert res.pipeline_stats.total > 0
