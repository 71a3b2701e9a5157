"""Tests for the fused batched rooted reduce collective."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime import SimCluster
from repro.runtime.faults import FaultPlan


@pytest.fixture()
def config():
    return CollectiveConfig()


def _batch(k: int, n_ranks: int, elements: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        [
            np.cumsum(rng.normal(0, 0.05, elements)).astype(np.float32)
            for _ in range(n_ranks)
        ]
        for _ in range(k)
    ]


class TestBatchedReduce:
    def test_outputs_indexed_by_session_and_bit_identical(self, config):
        batch = _batch(3, 4, 517)
        result = run(
            FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4), batch,
            config,
        )
        assert len(result.outputs) == 3
        for s, session in enumerate(batch):
            lone = run(FAMILIES["hzccl_reduce"], SimCluster(n_ranks=4), session, config)
            assert np.array_equal(result.outputs[s], lone.outputs[0])

    def test_nonzero_root_holds_the_fold(self, config):
        batch = _batch(2, 4, 300, seed=3)
        result = run(
            FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4), batch,
            config, root=2,
        )
        lone = run(
            FAMILIES["hzccl_reduce"], SimCluster(n_ranks=4), batch[0], config,
            root=2,
        )
        assert np.array_equal(result.outputs[0], lone.outputs[2])

    def test_batching_amortises_wire_bytes(self, config):
        k = 4
        batch = _batch(k, 4, 1024, seed=5)
        fused = run(
            FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4), batch,
            config,
        )
        independent = sum(
            run(FAMILIES["hzccl_reduce"], SimCluster(n_ranks=4), s, config).bytes_on_wire
            for s in batch
        )
        assert fused.bytes_on_wire <= independent

    def test_root_out_of_range(self, config):
        with pytest.raises(IndexError, match="root 9 out of range"):
            run(
                FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4),
                _batch(1, 4, 64), config, root=9,
            )

    def test_empty_batch_rejected(self, config):
        with pytest.raises(ValueError, match="empty batch"):
            run(FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4), [], config)

    def test_rank_count_mismatch_names_the_session(self, config):
        batch = _batch(2, 4, 64)
        batch[1] = batch[1][:3]
        with pytest.raises(ValueError, match="session 1: got 3 rank arrays"):
            run(FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4), batch, config)

    def test_shape_mismatch_names_the_session(self, config):
        batch = _batch(2, 4, 64)
        batch[1] = [np.zeros(65, dtype=np.float32) for _ in range(4)]
        with pytest.raises(ValueError, match="session 1: shape"):
            run(FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4), batch, config)


class TestBatchedDegrade:
    def test_degrade_reruns_every_session_plain(self, config):
        batch = _batch(2, 4, 300, seed=7)
        cluster = SimCluster(
            n_ranks=4, faults=FaultPlan(seed=1, corrupt_rate=0.9)
        )
        result = run(FAMILIES["hzccl_batched_reduce"], cluster, batch, config)
        assert result.degraded
        for s, session in enumerate(batch):
            exact = run(FAMILIES["mpi_reduce"], SimCluster(n_ranks=4), session).outputs[0]
            np.testing.assert_array_equal(result.outputs[s], exact)

    def test_degrade_bills_both_attempts(self, config):
        batch = _batch(2, 4, 300, seed=7)
        degraded = run(
            FAMILIES["hzccl_batched_reduce"],
            SimCluster(n_ranks=4, faults=FaultPlan(seed=1, corrupt_rate=0.9)),
            batch, config,
        )
        clean = run(
            FAMILIES["hzccl_batched_reduce"], SimCluster(n_ranks=4), batch,
            config,
        )
        assert degraded.degraded and not clean.degraded
        assert degraded.bytes_on_wire > clean.bytes_on_wire
