"""Tests for the plain (MPI-baseline) ring collectives."""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run, split_blocks, validate_local_data
from repro.runtime.cluster import SimCluster
from repro.runtime.topology import Ring


def make_cluster(n, fast_network):
    return SimCluster(n_ranks=n, network=fast_network)


def rank_data(rng, n_ranks, n=10_007):
    return [rng.normal(0, 1, n).astype(np.float32) for _ in range(n_ranks)]


def exact_total(local):
    return np.sum(np.stack(local).astype(np.float64), axis=0)


class TestHelpers:
    def test_split_blocks_lengths(self):
        blocks = split_blocks(np.arange(10), 3)
        assert [b.size for b in blocks] == [4, 3, 3]

    def test_split_blocks_same_index_same_length_across_ranks(self):
        a = split_blocks(np.arange(10), 3)
        b = split_blocks(np.arange(10) * 2, 3)
        assert [x.size for x in a] == [x.size for x in b]

    def test_validate_rejects_mismatched(self):
        with pytest.raises(ValueError):
            validate_local_data([np.zeros(3), np.zeros(4)])

    def test_validate_rejects_empty_list(self):
        with pytest.raises(ValueError):
            validate_local_data([])


class TestReduceScatter:
    @pytest.mark.parametrize("n_ranks", [2, 3, 5, 8])
    def test_correct_sums(self, rng, fast_network, n_ranks):
        local = rank_data(rng, n_ranks)
        cluster = make_cluster(n_ranks, fast_network)
        res = run(FAMILIES["mpi_reduce_scatter"], cluster, local)
        exact = exact_total(local)
        ring = Ring(n_ranks)
        blocks = split_blocks(exact, n_ranks)
        for i in range(n_ranks):
            np.testing.assert_allclose(
                res.outputs[i], blocks[ring.owned_block(i)], rtol=1e-5, atol=1e-4
            )

    def test_wrong_rank_count_rejected(self, rng, fast_network):
        with pytest.raises(ValueError, match="rank"):
            run(
                FAMILIES["mpi_reduce_scatter"], make_cluster(4, fast_network),
                rank_data(rng, 3),
            )

    def test_only_cpt_and_mpi_buckets(self, rng, fast_network):
        res = run(
            FAMILIES["mpi_reduce_scatter"], make_cluster(4, fast_network),
            rank_data(rng, 4),
        )
        bd = res.breakdown
        assert bd.buckets["CPR"] == 0
        assert bd.buckets["DPR"] == 0
        assert bd.buckets["HPR"] == 0
        assert bd.buckets["CPT"] > 0
        assert bd.buckets["MPI"] > 0

    def test_bytes_on_wire(self, rng, fast_network):
        n_ranks, n = 4, 1000
        res = run(
            FAMILIES["mpi_reduce_scatter"],
            make_cluster(n_ranks, fast_network), rank_data(rng, n_ranks, n),
        )
        assert res.bytes_on_wire == pytest.approx(n * 4 * (n_ranks - 1), rel=0.01)


class TestAllgather:
    def test_gathers_in_block_order(self, fast_network):
        n_ranks = 4
        ring = Ring(n_ranks)
        # chunk i is what rank i contributes = block owned_block(i)
        chunks = [None] * n_ranks
        for i in range(n_ranks):
            chunks[i] = np.full(5, float(ring.owned_block(i)), dtype=np.float32)
        res = run(FAMILIES["mpi_allgather"], make_cluster(n_ranks, fast_network), chunks)
        expected = np.concatenate(
            [np.full(5, float(k), dtype=np.float32) for k in range(n_ranks)]
        )
        for out in res.outputs:
            np.testing.assert_array_equal(out, expected)

    def test_wrong_chunk_count(self, fast_network):
        with pytest.raises(ValueError):
            run(
                FAMILIES["mpi_allgather"], make_cluster(3, fast_network),
                [np.zeros(2)] * 2,
            )


class TestAllreduce:
    @pytest.mark.parametrize("n_ranks", [2, 4, 7])
    def test_all_ranks_identical_and_correct(self, rng, fast_network, n_ranks):
        local = rank_data(rng, n_ranks)
        res = run(FAMILIES["mpi_allreduce"], make_cluster(n_ranks, fast_network), local)
        exact = exact_total(local)
        for out in res.outputs:
            np.testing.assert_allclose(out, exact, rtol=1e-5, atol=1e-4)

    def test_wire_bytes_double_reduce_scatter(self, rng, fast_network):
        local = rank_data(rng, 4, 1000)
        rs = run(FAMILIES["mpi_reduce_scatter"], make_cluster(4, fast_network), local)
        ar = run(FAMILIES["mpi_allreduce"], make_cluster(4, fast_network), local)
        assert ar.bytes_on_wire == pytest.approx(2 * rs.bytes_on_wire, rel=0.02)

    def test_time_grows_with_data(self, rng, fast_network):
        small = run(
            FAMILIES["mpi_allreduce"], make_cluster(4, fast_network),
            rank_data(rng, 4, 1000),
        )
        big = run(
            FAMILIES["mpi_allreduce"], make_cluster(4, fast_network),
            rank_data(rng, 4, 100_000),
        )
        assert big.total_time > small.total_time
