"""Tests for the C-Coll (DOC workflow) collectives."""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run, split_blocks
from repro.runtime.cluster import SimCluster
from repro.runtime.topology import Ring


def rank_data(rng, n_ranks, n=10_007):
    return [np.cumsum(rng.normal(0, 0.05, n)).astype(np.float32) for _ in range(n_ranks)]


def exact_total(local):
    return np.sum(np.stack(local).astype(np.float64), axis=0)


class TestReduceScatter:
    @pytest.mark.parametrize("n_ranks", [2, 4, 6])
    def test_error_bounded(self, rng, fast_network, config, n_ranks):
        """C-Coll requantises every round; error ≤ (2N−3)·eb."""
        local = rank_data(rng, n_ranks)
        cluster = SimCluster(n_ranks, network=fast_network)
        res = run(FAMILIES["ccoll_reduce_scatter"], cluster, local, config)
        exact = exact_total(local)
        ring = Ring(n_ranks)
        blocks = split_blocks(exact, n_ranks)
        bound = (2 * n_ranks) * config.error_bound
        for i in range(n_ranks):
            err = np.abs(
                res.outputs[i].astype(np.float64) - blocks[ring.owned_block(i)]
            ).max()
            assert err <= bound

    def test_all_doc_buckets_charged(self, rng, fast_network, config):
        cluster = SimCluster(4, network=fast_network)
        res = run(FAMILIES["ccoll_reduce_scatter"], cluster, rank_data(rng, 4), config)
        bd = res.breakdown
        assert bd.buckets["CPR"] > 0
        assert bd.buckets["DPR"] > 0
        assert bd.buckets["CPT"] > 0
        assert bd.buckets["HPR"] == 0  # no homomorphic ops in C-Coll

    def test_sends_fewer_bytes_than_mpi(self, rng, fast_network, config):
        local = rank_data(rng, 4)
        cc = run(
            FAMILIES["ccoll_reduce_scatter"],
            SimCluster(4, network=fast_network), local, config,
        )
        mpi = run(
            FAMILIES["mpi_reduce_scatter"],
            SimCluster(4, network=fast_network), local,
        )
        assert cc.bytes_on_wire < mpi.bytes_on_wire

    def test_wrong_rank_count(self, rng, fast_network, config):
        with pytest.raises(ValueError):
            run(
                FAMILIES["ccoll_reduce_scatter"],
                SimCluster(3, network=fast_network), rank_data(rng, 4), config,
            )


class TestAllgather:
    def test_roundtrips_chunks_within_eb(self, rng, fast_network, config):
        n_ranks = 4
        chunks = [rng.normal(0, 1, 500).astype(np.float32) for _ in range(n_ranks)]
        cluster = SimCluster(n_ranks, network=fast_network)
        res = run(FAMILIES["ccoll_allgather"], cluster, chunks, config)
        ring = Ring(n_ranks)
        expected = np.concatenate(
            [chunks[[r for r in range(n_ranks) if ring.owned_block(r) == k][0]]
             for k in range(n_ranks)]
        )
        for out in res.outputs:
            assert np.abs(out - expected).max() <= config.error_bound * 1.01

    def test_own_chunk_kept_exact(self, rng, fast_network, config):
        n_ranks = 3
        chunks = [rng.normal(0, 1, 300).astype(np.float32) for _ in range(n_ranks)]
        res = run(
            FAMILIES["ccoll_allgather"],
            SimCluster(n_ranks, network=fast_network), chunks, config,
        )
        ring = Ring(n_ranks)
        for i in range(n_ranks):
            k = ring.owned_block(i)
            own = res.outputs[i].reshape(n_ranks, 300)[k]
            np.testing.assert_array_equal(own, chunks[i])


class TestAllreduce:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_error_bounded(self, rng, fast_network, config, n_ranks):
        local = rank_data(rng, n_ranks)
        res = run(
            FAMILIES["ccoll_allreduce"],
            SimCluster(n_ranks, network=fast_network), local, config,
        )
        exact = exact_total(local)
        bound = (2 * n_ranks + 1) * config.error_bound
        for out in res.outputs:
            assert np.abs(out.astype(np.float64) - exact).max() <= bound

    def test_rank_outputs_agree_within_eb(self, rng, fast_network, config):
        local = rank_data(rng, 4)
        res = run(
            FAMILIES["ccoll_allreduce"], SimCluster(4, network=fast_network),
            local, config,
        )
        base = res.outputs[0].astype(np.float64)
        for out in res.outputs[1:]:
            assert np.abs(out.astype(np.float64) - base).max() <= 2 * config.error_bound

    def test_multithread_reduces_compute_share(self, rng, fast_network, config):
        local = rank_data(rng, 4)
        st = run(
            FAMILIES["ccoll_allreduce"], SimCluster(4, network=fast_network),
            local, config,
        )
        mt = run(
            FAMILIES["ccoll_allreduce"],
            SimCluster(4, network=fast_network, multithread=True), local,
            config,
        )
        assert mt.breakdown.doc_time < st.breakdown.doc_time
