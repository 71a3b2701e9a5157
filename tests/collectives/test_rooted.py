"""Tests for the root-based collectives (Reduce, Bcast)."""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.compression.common import dequantize, quantize
from repro.core.config import CollectiveConfig
from repro.runtime.cluster import SimCluster


def rank_data(rng, n, size=6007):
    return [rng.normal(0, 1, size).astype(np.float32) for _ in range(n)]


@pytest.fixture()
def config(fast_network):
    return CollectiveConfig(error_bound=1e-4, network=fast_network)


class TestMpiReduce:
    @pytest.mark.parametrize("root", [0, 2])
    def test_root_gets_full_sum(self, rng, fast_network, root):
        local = rank_data(rng, 4)
        res = run(
            FAMILIES["mpi_reduce"], SimCluster(4, network=fast_network), local,
            root=root,
        )
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        assert np.abs(res.outputs[root].astype(np.float64) - exact).max() < 1e-3

    def test_non_root_gets_nothing(self, rng, fast_network):
        local = rank_data(rng, 4)
        res = run(
            FAMILIES["mpi_reduce"], SimCluster(4, network=fast_network), local,
            root=1,
        )
        assert res.outputs[0] is None
        assert res.outputs[1] is not None

    def test_bad_root(self, rng, fast_network):
        with pytest.raises(IndexError):
            run(
                FAMILIES["mpi_reduce"], SimCluster(4, network=fast_network),
                rank_data(rng, 4), root=4,
            )


class TestHzcclReduce:
    def test_matches_integer_oracle(self, rng, fast_network, config):
        local = rank_data(rng, 4)
        res = run(
            FAMILIES["hzccl_reduce"], SimCluster(4, network=fast_network),
            local, config, root=0,
        )
        eb = config.error_bound
        oracle = dequantize(
            sum(quantize(a, eb).astype(np.int64) for a in local), eb
        )
        np.testing.assert_array_equal(res.outputs[0], oracle)

    def test_only_root_pays_decompression(self, rng, fast_network, config):
        """The structural claim: non-root ranks never decompress."""
        cluster = SimCluster(4, network=fast_network)
        run(FAMILIES["hzccl_reduce"], cluster, rank_data(rng, 4), config, root=2)
        for i in range(4):
            dpr = cluster.clocks[i].buckets["DPR"]
            if i == 2:
                assert dpr > 0
            else:
                assert dpr == 0

    def test_fewer_bytes_than_mpi(self, rng, fast_network, config):
        local = rank_data(rng, 4)
        hz = run(
            FAMILIES["hzccl_reduce"], SimCluster(4, network=fast_network),
            local, config,
        )
        mpi = run(FAMILIES["mpi_reduce"], SimCluster(4, network=fast_network), local)
        assert hz.bytes_on_wire < mpi.bytes_on_wire

    def test_pipeline_stats_present(self, rng, fast_network, config):
        res = run(
            FAMILIES["hzccl_reduce"], SimCluster(4, network=fast_network),
            rank_data(rng, 4), config,
        )
        assert res.pipeline_stats is not None


class TestHzcclReduceDirect:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_matches_integer_oracle(self, rng, fast_network, config, n):
        local = rank_data(rng, n)
        res = run(
            FAMILIES["hzccl_reduce_direct"],
            SimCluster(n, network=fast_network), local, config, root=0,
        )
        eb = config.error_bound
        oracle = dequantize(sum(quantize(a, eb).astype(np.int64) for a in local), eb)
        np.testing.assert_array_equal(res.outputs[0], oracle)

    def test_matches_ring_reduce(self, rng, fast_network, config):
        """Same quantisation, exact integer folds → identical root result."""
        local = rank_data(rng, 4)
        direct = run(
            FAMILIES["hzccl_reduce_direct"],
            SimCluster(4, network=fast_network), local, config, root=0,
        )
        ring = run(
            FAMILIES["hzccl_reduce"], SimCluster(4, network=fast_network),
            local, config, root=0,
        )
        np.testing.assert_array_equal(direct.outputs[0], ring.outputs[0])

    def test_non_root_outputs_none(self, rng, fast_network, config):
        res = run(
            FAMILIES["hzccl_reduce_direct"],
            SimCluster(4, network=fast_network), rank_data(rng, 4), config,
            root=2,
        )
        assert res.outputs[2] is not None
        assert all(res.outputs[i] is None for i in (0, 1, 3))

    def test_one_fused_kway_fold(self, rng, fast_network, config):
        """The root folds all N operands in a single fused invocation."""
        res = run(
            FAMILIES["hzccl_reduce_direct"],
            SimCluster(6, network=fast_network), rank_data(rng, 6), config,
        )
        assert res.pipeline_stats is not None
        assert res.pipeline_stats.fused_calls == 1
        assert res.pipeline_stats.fused_operands == 6
        assert res.pipeline_stats.mean_fanin == 6.0

    def test_only_root_pays_homomorphic_work(self, rng, fast_network, config):
        cluster = SimCluster(4, network=fast_network)
        run(FAMILIES["hzccl_reduce_direct"], cluster, rank_data(rng, 4), config, root=1)
        for i in range(4):
            hpr = cluster.clocks[i].buckets["HPR"]
            dpr = cluster.clocks[i].buckets["DPR"]
            if i == 1:
                assert hpr > 0 and dpr > 0
            else:
                assert hpr == 0 and dpr == 0

    def test_bad_root(self, rng, fast_network, config):
        with pytest.raises(IndexError):
            run(
                FAMILIES["hzccl_reduce_direct"],
                SimCluster(4, network=fast_network), rank_data(rng, 4), config,
                root=4,
            )


class TestBcast:
    def test_mpi_bcast_all_ranks_identical(self, rng, fast_network):
        data = rng.normal(0, 1, 5000).astype(np.float32)
        res = run(FAMILIES["mpi_bcast"], SimCluster(5, network=fast_network), data)
        for out in res.outputs:
            np.testing.assert_array_equal(out, data)

    def test_mpi_bcast_log_rounds_wire(self, rng, fast_network):
        data = rng.normal(0, 1, 1000).astype(np.float32)
        res = run(FAMILIES["mpi_bcast"], SimCluster(8, network=fast_network), data)
        # binomial tree: exactly N−1 copies move in total
        assert res.bytes_on_wire == 7 * data.nbytes

    def test_compressed_bcast_error_bounded(self, rng, fast_network, config):
        data = np.cumsum(rng.normal(0, 0.05, 20_000)).astype(np.float32)
        res = run(
            FAMILIES["compressed_bcast"], SimCluster(4, network=fast_network),
            data, config,
        )
        for i, out in enumerate(res.outputs):
            if i == 0:
                np.testing.assert_array_equal(out, data)  # root keeps exact
            else:
                assert np.abs(out - data).max() <= config.error_bound * 1.01

    def test_compressed_bcast_fewer_bytes(self, rng, fast_network, config):
        data = np.cumsum(rng.normal(0, 0.05, 20_000)).astype(np.float32)
        cb = run(
            FAMILIES["compressed_bcast"], SimCluster(8, network=fast_network),
            data, config,
        )
        mb = run(FAMILIES["mpi_bcast"], SimCluster(8, network=fast_network), data)
        assert cb.bytes_on_wire < mb.bytes_on_wire

    @pytest.mark.parametrize("name", ["mpi_bcast", "compressed_bcast"])
    def test_bcast_outputs_alias_nothing(self, rng, fast_network, config,
                                         name):
        # the plain tree hands every rank the root's array object: the
        # gather copies, so no output is the input or another rank's
        data = rng.normal(0, 1, 3000).astype(np.float32)
        for n in (1, 2, 5, 8):
            for root in range(n):
                outputs = run(
                    FAMILIES[name], SimCluster(n, network=fast_network),
                    data, config, root=root,
                ).outputs
                for i, out in enumerate(outputs):
                    assert not np.shares_memory(out, data)
                    for other in outputs[i + 1:]:
                        assert not np.shares_memory(out, other)

    def test_compressed_bcast_one_cpr(self, rng, fast_network, config):
        data = rng.normal(0, 1, 5000).astype(np.float32)
        cluster = SimCluster(4, network=fast_network)
        run(FAMILIES["compressed_bcast"], cluster, data, config, root=1)
        assert cluster.clocks[1].buckets["CPR"] > 0
        for i in (0, 2, 3):
            assert cluster.clocks[i].buckets["CPR"] == 0
            assert cluster.clocks[i].buckets["DPR"] > 0
