"""Tests for the closed-form cost/error analysis (§III-C identities)."""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.core.analysis import (
    allreduce_counts,
    cost_advantage_allreduce,
    cost_advantage_reduce_scatter,
    error_bounds,
    hzccl_breakeven_hpr,
    reduce_scatter_counts,
)
from repro.core.cost_model import PAPER_BROADWELL, CostRates
from repro.schedule import family_cost


class TestOperationCounts:
    def test_paper_rs_counts(self):
        """§III-C1: C-Coll (N−1)(CPR+DPR+CPT); hZCCL N·CPR + (N−1)·HPR + DPR."""
        n = 8
        cc = reduce_scatter_counts(n, "ccoll")
        assert (cc.cpr, cc.dpr, cc.cpt, cc.hpr) == (7, 7, 7, 0)
        hz = reduce_scatter_counts(n, "hzccl")
        assert (hz.cpr, hz.dpr, hz.cpt, hz.hpr) == (8, 1, 0, 7)

    def test_paper_ar_counts(self):
        """§III-C2: C-Coll N·CPR + 2(N−1)·DPR + (N−1)·CPT; hZCCL fused."""
        n = 8
        cc = allreduce_counts(n, "ccoll")
        assert (cc.cpr, cc.dpr, cc.cpt, cc.hpr) == (8, 14, 7, 0)
        hz = allreduce_counts(n, "hzccl")
        assert (hz.cpr, hz.dpr, hz.cpt, hz.hpr) == (8, 7, 0, 7)

    def test_mpi_counts(self):
        mpi = reduce_scatter_counts(4, "mpi")
        assert (mpi.cpr, mpi.dpr, mpi.hpr) == (0, 0, 0)
        assert mpi.cpt == 3

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            reduce_scatter_counts(4, "nccl")
        with pytest.raises(ValueError):
            allreduce_counts(4, "nccl")

    def test_cost_applies_rates(self):
        rates = CostRates(1e-9, 1e-9, 1e-9, 1e-9, 10.0, op_overhead_s=0.0)
        counts = reduce_scatter_counts(4, "mpi")
        assert counts.cost(rates, 1000) == pytest.approx(3 * 1000 * 1e-9)


class TestPaperIdentities:
    def test_rs_advantage_formula(self):
        """Direct check of (N−1)(DPR+CPT−HPR) − CPR − DPR."""
        rates = CostRates(
            cpr_s_per_byte=2e-9,
            dpr_s_per_byte=1e-9,
            hpr_s_per_byte=5e-10,
            cpt_s_per_byte=3e-10,
            ratio=10,
            op_overhead_s=0.0,
        )
        n, block = 16, 10**6
        expected = block * (
            (n - 1) * (1e-9 + 3e-10 - 5e-10) - 2e-9 - 1e-9
        )
        assert cost_advantage_reduce_scatter(n, rates, block) == pytest.approx(expected)

    def test_ar_advantage_formula(self):
        """Direct check of (N−1)(DPR−HPR) + (N−1)·CPT."""
        rates = CostRates(
            cpr_s_per_byte=2e-9,
            dpr_s_per_byte=1e-9,
            hpr_s_per_byte=5e-10,
            cpt_s_per_byte=3e-10,
            ratio=10,
            op_overhead_s=0.0,
        )
        n, block = 16, 10**6
        expected = block * ((n - 1) * (1e-9 - 5e-10) + (n - 1) * 3e-10)
        assert cost_advantage_allreduce(n, rates, block) == pytest.approx(expected)

    def test_advantage_amplified_by_n(self):
        adv8 = cost_advantage_allreduce(8, PAPER_BROADWELL, 10**6)
        adv64 = cost_advantage_allreduce(64, PAPER_BROADWELL, 10**6)
        assert adv64 > adv8 > 0

    def test_breakeven_condition(self):
        """hZCCL wins under paper rates (HPR < DPR + CPT) and the breakeven
        threshold flips the sign of the large-N advantage."""
        assert PAPER_BROADWELL.hpr_s_per_byte < hzccl_breakeven_hpr(PAPER_BROADWELL)
        from dataclasses import replace

        losing = replace(
            PAPER_BROADWELL,
            hpr_s_per_byte=hzccl_breakeven_hpr(PAPER_BROADWELL) * 2,
            op_overhead_s=0.0,
        )
        assert cost_advantage_allreduce(512, losing, 10**6) < 0

    def test_matches_cost_model_compute_buckets(self):
        """The count identities must agree with the §III-C model's compute
        buckets (network excluded)."""
        from dataclasses import replace

        from repro.runtime.network import NetworkModel

        n, total = 16, 16 * 10**6
        net = NetworkModel(latency_s=1e-9, bandwidth_Bps=1e15)  # ~free network
        # zero per-op overhead: the model batches the fused Allgather's
        # decompression into one invocation, which the pure counts do not
        # distinguish — with overhead off the identities are exact
        rates = replace(PAPER_BROADWELL, op_overhead_s=0.0)
        bd = family_cost("hzccl_allreduce", total, rates, net, n=n)
        counts = allreduce_counts(n, "hzccl")
        assert bd.doc_time == pytest.approx(counts.cost(rates, total / n), rel=1e-6)


class TestErrorBounds:
    def test_mpi_exact(self):
        eb = error_bounds(8, 1e-4, "mpi")
        assert eb.max_error == 0.0

    def test_hzccl_linear_in_n(self):
        eb = error_bounds(8, 1e-4, "hzccl")
        assert eb.max_error == pytest.approx(8e-4)
        assert eb.rms_estimate == pytest.approx(1e-4 * np.sqrt(8 / 3))

    def test_ccoll_worse_worst_case(self):
        hz = error_bounds(16, 1e-4, "hzccl")
        cc = error_bounds(16, 1e-4, "ccoll")
        assert cc.max_error > hz.max_error

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            error_bounds(4, 1e-4, "nccl")

    def test_monte_carlo_validation(self, rng, fast_network):
        """Functional runs respect the bounds; RMS estimates land within a
        small factor of measurement."""
        from repro.core.config import CollectiveConfig
        from repro.runtime.cluster import SimCluster

        n, eb = 8, 1e-3
        local = [rng.normal(0, 1, 8000).astype(np.float32) for _ in range(n)]
        exact = np.sum(np.stack(local).astype(np.float64), axis=0)
        config = CollectiveConfig(error_bound=eb, network=fast_network)
        res = run(
            FAMILIES["hzccl_allreduce"], SimCluster(n, network=fast_network),
            local, config,
        )
        err = res.outputs[0].astype(np.float64) - exact
        bounds = error_bounds(n, eb, "hzccl")
        assert np.abs(err).max() <= bounds.max_error * 1.001
        measured_rms = float(np.sqrt(np.mean(err**2)))
        assert 0.3 * bounds.rms_estimate < measured_rms < 1.7 * bounds.rms_estimate
