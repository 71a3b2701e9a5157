"""Cross-implementation and cross-theory validation.

Three independent artefacts describe every collective: the
round-synchronous implementation, the message-level (point-to-point)
implementation, and the closed-form analysis.  These tests hold all three
to each other on dataset-driven workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import (
    FAMILIES,
    p2p_hzccl_allreduce,
    p2p_reduce_scatter,
    run,
)
from repro.core.analysis import error_bounds
from repro.core.config import CollectiveConfig
from repro.datasets import snapshot_series
from repro.runtime.cluster import SimCluster
from repro.runtime.communicator import Communicator
from repro.runtime.network import NetworkModel

NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)


class TestImplementationsAgree:
    @pytest.mark.parametrize("name", ["sim1", "hurricane"])
    def test_hzccl_bulk_vs_p2p_on_datasets(self, name):
        snapshots = [
            s.ravel()[:40_000] for s in snapshot_series(name, 4, scale=0.01, seed=9)
        ]
        config = CollectiveConfig(error_bound=1e-4, network=NET)
        bulk = run(
            FAMILIES["hzccl_allreduce"], SimCluster(4, network=NET), snapshots,
            config,
        ).outputs
        p2p = p2p_hzccl_allreduce(Communicator(4, network=NET), snapshots, config)
        for a, b in zip(bulk, p2p):
            np.testing.assert_array_equal(a, b)

    @given(n=st.integers(2, 6), seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_plain_rs_property(self, n, seed):
        rng = np.random.default_rng(seed)
        local = [rng.normal(0, 1, 1000 + seed % 97).astype(np.float32) for _ in range(n)]
        bulk = run(FAMILIES["mpi_reduce_scatter"], SimCluster(n, network=NET), local).outputs
        p2p = p2p_reduce_scatter(Communicator(n, network=NET), local)
        for a, b in zip(bulk, p2p):
            np.testing.assert_array_equal(a, b)


class TestTheoryMatchesExecution:
    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("eb", [1e-2, 1e-4])
    def test_hzccl_error_within_analysis_bound(self, rng, n, eb):
        local = [rng.normal(0, 1, 9000).astype(np.float32) for _ in range(n)]
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        config = CollectiveConfig(error_bound=eb, network=NET)
        res = run(FAMILIES["hzccl_allreduce"], SimCluster(n, network=NET), local, config)
        bound = error_bounds(n, eb, "hzccl")
        err = np.abs(res.outputs[0].astype(np.float64) - exact).max()
        assert err <= bound.max_error * 1.001

    def test_ccoll_error_within_analysis_bound(self, rng):

        n, eb = 6, 1e-3
        local = [
            np.cumsum(rng.normal(0, 0.05, 9000)).astype(np.float32) for _ in range(n)
        ]
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        config = CollectiveConfig(error_bound=eb, network=NET)
        res = run(FAMILIES["ccoll_allreduce"], SimCluster(n, network=NET), local, config)
        # the allreduce adds one more requantisation chain on the gather
        bound = error_bounds(n, eb, "ccoll").max_error + n * eb
        err = np.abs(res.outputs[0].astype(np.float64) - exact).max()
        assert err <= bound

    def test_rms_scaling_with_n(self, rng):
        """RMS error grows ~sqrt(N), not N — the statistical half of the
        accuracy story."""
        eb = 1e-3
        rms = {}
        for n in (4, 16):
            local = [rng.normal(0, 1, 20_000).astype(np.float32) for _ in range(n)]
            exact = np.sum(np.stack(local).astype(np.float64), axis=0)
            config = CollectiveConfig(error_bound=eb, network=NET)
            res = run(
                FAMILIES["hzccl_allreduce"], SimCluster(n, network=NET), local,
                config,
            )
            err = res.outputs[0].astype(np.float64) - exact
            rms[n] = float(np.sqrt(np.mean(err**2)))
        growth = rms[16] / rms[4]
        assert 1.4 < growth < 3.2  # sqrt(4) = 2 ± sampling noise


class TestTimingConsistency:
    def test_p2p_makespan_within_factor_of_bulk_total(self, rng):
        """The causal message-level clock and the bulk-synchronous round
        clock are different approximations of the same schedule; they must
        agree within a small factor on communication-dominated runs."""
        n = 6
        local = [rng.normal(0, 1, 200_000).astype(np.float32) for _ in range(n)]
        slow_net = NetworkModel(latency_s=1e-6, bandwidth_Bps=5e7, congestion_per_log2=0)
        bulk = run(FAMILIES["mpi_reduce_scatter"], SimCluster(n, network=slow_net), local)
        comm = Communicator(n, network=slow_net)
        p2p_reduce_scatter(comm, local)
        ratio = comm.makespan / bulk.total_time
        assert 0.4 < ratio < 2.5
