"""Unit tests for the §III-C analytic cost model."""

import pytest

from repro.core.cost_model import PAPER_BROADWELL, CostRates, matched_network
from repro.runtime.network import NetworkModel
from repro.schedule import family_cost

NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.0)
RATES = CostRates(
    cpr_s_per_byte=1e-9,
    dpr_s_per_byte=5e-10,
    hpr_s_per_byte=2e-10,
    cpt_s_per_byte=1e-10,
    ratio=10.0,
    op_overhead_s=0.0,
)


class TestFormulas:
    """Hand-computed expectations for tiny cases."""

    def test_mpi_reduce_scatter(self):
        n, total = 4, 4000
        bd = family_cost("mpi_reduce_scatter", total, RATES, NET, n=n)
        block = 1000
        assert bd.buckets["CPT"] == pytest.approx(3 * block * 1e-10)
        assert bd.buckets["MPI"] == pytest.approx(3 * NET.transfer_time(block, n))

    def test_ccoll_reduce_scatter_counts(self):
        n, total = 4, 4000
        bd = family_cost("ccoll_reduce_scatter", total, RATES, NET, n=n)
        block = 1000
        assert bd.buckets["CPR"] == pytest.approx(3 * block * 1e-9)
        assert bd.buckets["DPR"] == pytest.approx(3 * block * 5e-10)
        assert bd.buckets["CPT"] == pytest.approx(3 * block * 1e-10)

    def test_hzccl_reduce_scatter_counts(self):
        """N·CPR + (N−1)·HPR + 1·DPR — the paper's §III-C1 total."""
        n, total = 4, 4000
        bd = family_cost("hzccl_reduce_scatter", total, RATES, NET, n=n)
        block = 1000
        assert bd.buckets["CPR"] == pytest.approx(4 * block * 1e-9)
        assert bd.buckets["HPR"] == pytest.approx(3 * block * 2e-10)
        assert bd.buckets["DPR"] == pytest.approx(1 * block * 5e-10)

    def test_hzccl_allreduce_counts(self):
        n, total = 4, 4000
        bd = family_cost("hzccl_allreduce", total, RATES, NET, n=n)
        block = 1000
        assert bd.buckets["CPR"] == pytest.approx(4 * block * 1e-9)
        assert bd.buckets["HPR"] == pytest.approx(3 * block * 2e-10)
        assert bd.buckets["DPR"] == pytest.approx(3 * block * 5e-10)

    def test_ccoll_allreduce_counts(self):
        """N·CPR + 2(N−1)·DPR + (N−1)·CPT (§III-C2)."""
        n, total = 4, 4000
        bd = family_cost("ccoll_allreduce", total, RATES, NET, n=n)
        block = 1000
        assert bd.buckets["CPR"] == pytest.approx(4 * block * 1e-9)
        assert bd.buckets["DPR"] == pytest.approx(6 * block * 5e-10)

    def test_compressed_transfers(self):
        n, total = 4, 40_000
        cc = family_cost("ccoll_reduce_scatter", total, RATES, NET, n=n)
        mpi = family_cost("mpi_reduce_scatter", total, RATES, NET, n=n)
        # 10× smaller messages ⇒ MPI bucket strictly smaller
        assert cc.buckets["MPI"] < mpi.buckets["MPI"]

    def test_total_is_bucket_sum(self):
        bd = family_cost("hzccl_allreduce", 10**6, RATES, NET, n=8)
        assert bd.total_time == pytest.approx(sum(bd.buckets.values()))

    def test_hzccl_reduce_direct_counts(self):
        """CPR on the full vector + incast + fused N-way HPR + one DPR."""
        n, total = 4, 4000
        bd = family_cost("hzccl_reduce_direct", total, RATES, NET, n=n)
        assert bd.buckets["CPR"] == pytest.approx(total * 1e-9)
        assert bd.buckets["HPR"] == pytest.approx(
            total * RATES.fused_hpr_s_per_byte(n)
        )
        assert bd.buckets["DPR"] == pytest.approx(total * 5e-10)
        assert bd.buckets["MPI"] == pytest.approx(
            3 * NET.transfer_time(int(total / RATES.ratio), n)
        )

    def test_fused_hpr_beats_pairwise_fold_charge(self):
        """The fused charge grows like k·IFE + FE, the fold like (k−1)·HPR."""
        for k in (2, 4, 16):
            fused = RATES.fused_hpr_s_per_byte(k)
            fold = (k - 1) * RATES.hpr_s_per_byte
            assert fused <= fold * 1.0001, k
        assert RATES.fused_hpr_s_per_byte(16) < 15 * RATES.hpr_s_per_byte / 2


class TestPaperShapes:
    """The orderings the paper's figures report, under its own rates."""

    @pytest.mark.parametrize("n", [8, 64, 512])
    @pytest.mark.parametrize("mt", [False, True])
    def test_hzccl_beats_ccoll_beats_mpi(self, n, mt):
        from repro.runtime.network import OMNIPATH_100G

        total = 646_000_000
        mpi = family_cost("mpi_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=n).total_time
        cc = family_cost("ccoll_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=n).total_time
        hz = family_cost("hzccl_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=n).total_time
        assert hz < cc
        if n >= 64 or mt:
            assert cc < mpi

    def test_speedup_grows_with_message_size(self):
        from repro.runtime.network import OMNIPATH_100G

        speedups = []
        for total in (10**7, 10**8, 6 * 10**8):
            mpi = family_cost("mpi_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, True, n=64)
            hz = family_cost("hzccl_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, True, n=64)
            speedups.append(mpi.total_time / hz.total_time)
        assert speedups == sorted(speedups)

    def test_reduce_scatter_speedup_dips_at_scale(self):
        """Fig. 10: speedup rises, peaks, then declines toward 512 nodes."""
        from repro.runtime.network import OMNIPATH_100G

        total = 646_000_000
        speedups = {}
        for n in (8, 128, 512):
            mpi = family_cost(
                "mpi_reduce_scatter", total, PAPER_BROADWELL, OMNIPATH_100G,
                True, n=n,
            )
            hz = family_cost(
                "hzccl_reduce_scatter", total, PAPER_BROADWELL, OMNIPATH_100G,
                True, n=n,
            )
            speedups[n] = mpi.total_time / hz.total_time
        assert speedups[128] > speedups[8]
        assert speedups[512] < speedups[128]

    def test_multithread_faster(self):
        from repro.runtime.network import OMNIPATH_100G

        st = family_cost("hzccl_allreduce", 10**8, PAPER_BROADWELL, OMNIPATH_100G, False, n=64)
        mt = family_cost("hzccl_allreduce", 10**8, PAPER_BROADWELL, OMNIPATH_100G, True, n=64)
        assert mt.total_time < st.total_time


class TestRates:
    def test_scaled_divides_compute_only(self):
        mt = RATES.scaled(4.0)
        assert mt.cpr_s_per_byte == RATES.cpr_s_per_byte / 4
        assert mt.ife_s_per_byte == RATES.ife_s_per_byte / 4
        assert mt.fe_s_per_byte == RATES.fe_s_per_byte / 4
        assert mt.ratio == RATES.ratio
        assert mt.op_overhead_s == RATES.op_overhead_s

    def test_derived_split_preserves_pairwise_charge(self):
        """Defaults keep the legacy pairwise charge: fused(2) == HPR."""
        assert RATES.fused_hpr_s_per_byte(2) == pytest.approx(
            RATES.hpr_s_per_byte
        )

    def test_explicit_split_used_verbatim(self):
        rates = CostRates(1e-9, 1e-9, 1e-9, 1e-9, 10.0,
                          ife_s_per_byte=2e-10, fe_s_per_byte=3e-10)
        assert rates.fused_hpr_s_per_byte(5) == pytest.approx(5 * 2e-10 + 3e-10)

    def test_measure_returns_positive_rates(self, smooth_data):
        half = smooth_data[: smooth_data.size // 2]
        rates = CostRates.measure(half, half[::-1].copy(), 1e-4, repeats=1)
        assert rates.cpr_s_per_byte > 0
        assert rates.dpr_s_per_byte > 0
        assert rates.hpr_s_per_byte > 0
        assert rates.ife_s_per_byte > 0
        assert rates.fe_s_per_byte > 0
        assert rates.ratio > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CostRates(0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            CostRates(1, 1, 1, 1, 0)

    def test_matched_network_scales_bandwidth(self):
        slow = CostRates(
            cpr_s_per_byte=PAPER_BROADWELL.cpr_s_per_byte * 10,
            dpr_s_per_byte=1e-9,
            hpr_s_per_byte=1e-9,
            cpt_s_per_byte=1e-9,
            ratio=5,
        )
        net = matched_network(NET, slow)
        assert net.bandwidth_Bps == pytest.approx(NET.bandwidth_Bps / 10)

    def test_matched_network_rejects_absurd_scale(self):
        absurd = CostRates(1e3, 1, 1, 1, 1)  # 1000 s per byte
        with pytest.raises(ValueError):
            matched_network(NET, absurd)
