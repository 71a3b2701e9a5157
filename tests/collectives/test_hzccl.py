"""Tests for the hZCCL homomorphic collectives."""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run, split_blocks
from repro.compression.common import dequantize, quantize
from repro.compression.format import CompressedField
from repro.runtime.cluster import SimCluster
from repro.runtime.topology import Ring


def rank_data(rng, n_ranks, n=10_007):
    return [np.cumsum(rng.normal(0, 0.05, n)).astype(np.float32) for _ in range(n_ranks)]


def quantised_exact_blocks(local, eb, n_ranks):
    """Oracle: per-block dequantised integer sums (hZCCL is exact here)."""
    blocks = [split_blocks(a, n_ranks) for a in local]
    out = []
    for k in range(n_ranks):
        total = sum(quantize(blocks[i][k], eb).astype(np.int64) for i in range(len(local)))
        out.append(dequantize(total, eb))
    return out


class TestReduceScatter:
    @pytest.mark.parametrize("n_ranks", [2, 3, 4, 8])
    def test_matches_integer_oracle(self, rng, fast_network, config, n_ranks):
        """hZCCL reduces in the integer domain — bit-exact vs the oracle."""
        local = rank_data(rng, n_ranks)
        res = run(
            FAMILIES["hzccl_reduce_scatter"],
            SimCluster(n_ranks, network=fast_network), local, config,
        )
        oracle = quantised_exact_blocks(local, config.error_bound, n_ranks)
        ring = Ring(n_ranks)
        for i in range(n_ranks):
            np.testing.assert_array_equal(res.outputs[i], oracle[ring.owned_block(i)])

    def test_single_quantisation_error_bound(self, rng, fast_network, config):
        n_ranks = 6
        local = rank_data(rng, n_ranks)
        res = run(
            FAMILIES["hzccl_reduce_scatter"],
            SimCluster(n_ranks, network=fast_network), local, config,
        )
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        ring = Ring(n_ranks)
        blocks = split_blocks(exact, n_ranks)
        for i in range(n_ranks):
            err = np.abs(
                res.outputs[i].astype(np.float64) - blocks[ring.owned_block(i)]
            ).max()
            assert err <= n_ranks * config.error_bound * 1.001

    def test_accuracy_comparable_to_ccoll(self, rng, fast_network, config):
        """The paper's claim is that hZCCL *maintains* accuracy: its RMS
        error must be in the same band as C-Coll's (both are dominated by
        the N independent input quantisations; per-round requantisation
        noise roughly cancels in C-Coll)."""
        n_ranks = 8
        local = rank_data(rng, n_ranks)
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        blocks = split_blocks(exact, n_ranks)
        ring = Ring(n_ranks)

        def rms(res):
            errs = np.concatenate(
                [
                    res.outputs[i].astype(np.float64) - blocks[ring.owned_block(i)]
                    for i in range(n_ranks)
                ]
            )
            return float(np.sqrt(np.mean(errs**2)))

        hz = run(
            FAMILIES["hzccl_reduce_scatter"],
            SimCluster(n_ranks, network=fast_network), local, config,
        )
        cc = run(
            FAMILIES["ccoll_reduce_scatter"],
            SimCluster(n_ranks, network=fast_network), local, config,
        )
        assert rms(hz) <= rms(cc) * 1.25
        assert rms(hz) <= n_ranks * config.error_bound  # and absolutely bounded

    def test_return_compressed(self, rng, fast_network, config):
        local = rank_data(rng, 4)
        res = run(
            FAMILIES["hzccl_reduce_scatter_fused"],
            SimCluster(4, network=fast_network), local, config,
        )
        assert all(isinstance(o, CompressedField) for o in res.outputs)

    def test_buckets(self, rng, fast_network, config):
        res = run(
            FAMILIES["hzccl_reduce_scatter"],
            SimCluster(4, network=fast_network), rank_data(rng, 4), config,
        )
        bd = res.breakdown
        assert bd.buckets["CPR"] > 0
        assert bd.buckets["HPR"] > 0
        assert bd.buckets["DPR"] > 0
        assert bd.buckets["CPT"] == 0  # never touches the float domain

    def test_pipeline_stats_present(self, rng, fast_network, config):
        res = run(
            FAMILIES["hzccl_reduce_scatter"],
            SimCluster(4, network=fast_network), rank_data(rng, 4), config,
        )
        assert res.pipeline_stats is not None
        assert res.pipeline_stats.total > 0


class TestAllgatherCompressed:
    def test_gathers_and_decompresses(self, rng, fast_network, config):
        from repro.compression.fzlight import FZLight

        n_ranks = 4
        comp = FZLight(block_size=config.block_size, n_threadblocks=config.n_threadblocks)
        ring = Ring(n_ranks)
        payloads = [rng.normal(0, 1, 500).astype(np.float32) for _ in range(n_ranks)]
        chunks = [comp.compress(p, abs_eb=config.error_bound) for p in payloads]
        res = run(
            FAMILIES["hzccl_allgather_compressed"],
            SimCluster(n_ranks, network=fast_network), chunks, config,
        )
        expected = np.concatenate(
            [comp.decompress(chunks[[r for r in range(n_ranks) if ring.owned_block(r) == k][0]])
             for k in range(n_ranks)]
        )
        for out in res.outputs:
            np.testing.assert_array_equal(out, expected)

    def test_no_cpr_charged(self, rng, fast_network, config):
        from repro.compression.fzlight import FZLight

        comp = FZLight(block_size=config.block_size, n_threadblocks=config.n_threadblocks)
        chunks = [
            comp.compress(rng.normal(0, 1, 300).astype(np.float32), abs_eb=config.error_bound)
            for _ in range(3)
        ]
        res = run(
            FAMILIES["hzccl_allgather_compressed"],
            SimCluster(3, network=fast_network), chunks, config,
        )
        assert res.breakdown.buckets["CPR"] == 0  # the fused optimisation


class TestAllreduce:
    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_matches_integer_oracle(self, rng, fast_network, config, n_ranks):
        local = rank_data(rng, n_ranks)
        res = run(
            FAMILIES["hzccl_allreduce"],
            SimCluster(n_ranks, network=fast_network), local, config,
        )
        eb = config.error_bound
        oracle = dequantize(
            sum(quantize(a, eb).astype(np.int64) for a in local), eb
        )
        for out in res.outputs:
            np.testing.assert_array_equal(out, oracle)

    def test_all_ranks_bitwise_identical(self, rng, fast_network, config):
        """Unlike C-Coll, every rank decompresses the same compressed
        blocks, so outputs agree bit-for-bit."""
        local = rank_data(rng, 4)
        res = run(
            FAMILIES["hzccl_allreduce"], SimCluster(4, network=fast_network),
            local, config,
        )
        for out in res.outputs[1:]:
            np.testing.assert_array_equal(out, res.outputs[0])

    def test_sends_fewer_bytes_than_uncompressed(self, rng, fast_network, config):

        local = rank_data(rng, 4)
        hz = run(
            FAMILIES["hzccl_allreduce"], SimCluster(4, network=fast_network),
            local, config,
        )
        mpi = run(FAMILIES["mpi_allreduce"], SimCluster(4, network=fast_network), local)
        assert hz.bytes_on_wire < mpi.bytes_on_wire

    def test_multithread_mode(self, rng, fast_network, config):
        local = rank_data(rng, 4)
        st = run(
            FAMILIES["hzccl_allreduce"], SimCluster(4, network=fast_network),
            local, config,
        )
        mt = run(
            FAMILIES["hzccl_allreduce"],
            SimCluster(4, network=fast_network, multithread=True), local,
            config,
        )
        assert mt.breakdown.doc_time < st.breakdown.doc_time
        np.testing.assert_array_equal(mt.outputs[0], st.outputs[0])
