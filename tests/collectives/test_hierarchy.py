"""Executed correctness of the two-level hierarchical allreduce.

The load-bearing property is *bit-identity*: because the homomorphic
path quantises each input exactly once and every fold — intra-node
binomial, inter-node ring or Rabenseifner — is an exact integer-domain
``reduce_fused``, the hierarchical result must equal the flat fused
reference (compress every rank's block, fold them all, decode) to the
last bit, for the same ``n_nodes`` block split.  Hierarchy changes the
schedule, never the answer.
"""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.collectives.base import split_blocks
from repro.compression.fzlight import FZLight
from repro.core import HZCCL
from repro.core.config import CollectiveConfig
from repro.homomorphic.hzdynamic import HZDynamic
from repro.runtime import (
    DragonflyNetwork,
    FaultPlan,
    NodeMap,
    SimCluster,
    TorusNetwork,
    TraceLog,
)

EB = 1e-3
CONFIG = CollectiveConfig(error_bound=EB)
SHAPES = [(8, 2), (8, 4), (16, 4), (6, 3), (4, 4), (5, 1)]


def _data(n: int, elements: int = 600, seed: int = 7) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.cumsum(rng.normal(0, 0.05, elements)).astype(np.float32)
        for _ in range(n)
    ]


def _flat_fused_reference(data, n_nodes: int) -> list[np.ndarray]:
    """Compress every rank's block once, fold them all, decode — the
    schedule-free answer the hierarchy must reproduce bit-for-bit."""
    comp = FZLight(
        block_size=CONFIG.block_size, n_threadblocks=CONFIG.n_threadblocks
    )
    engine = HZDynamic(collect_stats=False)
    out = []
    for b in range(n_nodes):
        fields = [
            comp.compress(split_blocks(a, n_nodes)[b], abs_eb=EB)
            for a in data
        ]
        out.append(comp.decompress(engine.reduce_fused(fields)))
    return out


class TestPlain:
    @pytest.mark.parametrize("n,rpn", SHAPES)
    @pytest.mark.parametrize("inter", ["ring"])
    def test_matches_exact_sum(self, n, rpn, inter):
        data = _data(n)
        exact = np.sum(np.stack(data), axis=0, dtype=np.float64)
        cluster = SimCluster(n)
        result = run(
            FAMILIES["mpi_hierarchical_allreduce"], cluster, data,
            nodemap=NodeMap.regular(n, rpn), inter=inter,
        )
        assert not result.degraded
        for out in result.outputs:
            np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-5)

    def test_rabenseifner_inter(self):
        n, rpn = 16, 4
        data = _data(n)
        exact = np.sum(np.stack(data), axis=0, dtype=np.float64)
        result = run(
            FAMILIES["mpi_hierarchical_allreduce"], SimCluster(n), data,
            nodemap=NodeMap.regular(n, rpn), inter="rabenseifner",
        )
        for out in result.outputs:
            np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-5)

    def test_rank_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="NodeMap places"):
            run(
                FAMILIES["mpi_hierarchical_allreduce"], SimCluster(8),
                _data(8), nodemap=NodeMap.regular(4, 2),
            )


class TestHomomorphic:
    @pytest.mark.parametrize("n,rpn", SHAPES)
    def test_bit_identical_to_flat_fused_reference(self, n, rpn):
        nodemap = NodeMap.regular(n, rpn)
        data = _data(n)
        reference = _flat_fused_reference(data, nodemap.n_nodes)
        result = run(
            FAMILIES["hzccl_hierarchical_allreduce"], SimCluster(n), data,
            CONFIG, nodemap=nodemap, inter="ring",
        )
        assert not result.degraded
        for out in result.outputs:
            for b in range(nodemap.n_nodes):
                np.testing.assert_array_equal(
                    split_blocks(out, nodemap.n_nodes)[b], reference[b]
                )

    def test_rabenseifner_bit_identical_too(self):
        n, rpn = 16, 4
        nodemap = NodeMap.regular(n, rpn)
        data = _data(n)
        reference = np.concatenate(
            _flat_fused_reference(data, nodemap.n_nodes)
        )
        result = run(
            FAMILIES["hzccl_hierarchical_allreduce"], SimCluster(n), data,
            CONFIG, nodemap=nodemap, inter="rabenseifner",
        )
        for out in result.outputs:
            np.testing.assert_array_equal(out, reference)

    @pytest.mark.parametrize("n,rpn", SHAPES)
    def test_within_error_bound(self, n, rpn):
        data = _data(n)
        exact = np.sum(np.stack(data), axis=0, dtype=np.float64)
        result = run(
            FAMILIES["hzccl_hierarchical_allreduce"], SimCluster(n), data,
            CONFIG, nodemap=NodeMap.regular(n, rpn),
        )
        for out in result.outputs:
            assert np.max(np.abs(out - exact)) <= n * EB + 1e-12

    def test_sends_fewer_wire_bytes_than_plain(self):
        n, rpn = 16, 4
        data = _data(n, elements=4096)
        nodemap = NodeMap.regular(n, rpn)
        plain = run(
            FAMILIES["mpi_hierarchical_allreduce"], SimCluster(n), data,
            nodemap=nodemap, inter="ring",
        )
        hz = run(
            FAMILIES["hzccl_hierarchical_allreduce"], SimCluster(n), data,
            CONFIG, nodemap=nodemap, inter="ring",
        )
        assert hz.bytes_on_wire < plain.bytes_on_wire

    def test_fabric_aware_default_family(self):
        """``inter=None`` defers to the cluster's network model."""
        n, rpn = 16, 4  # 4 nodes: power of two → rabenseifner on dragonfly
        data = _data(n)
        nodemap = NodeMap.regular(n, rpn)
        for network in (DragonflyNetwork(), TorusNetwork()):
            cluster = SimCluster(n, network=network, trace=TraceLog())
            result = run(
                FAMILIES["hzccl_hierarchical_allreduce"], cluster, data,
                CONFIG, nodemap=nodemap,
            )
            assert not result.degraded
            reference = np.concatenate(
                _flat_fused_reference(data, nodemap.n_nodes)
            )
            np.testing.assert_array_equal(result.outputs[0], reference)


class TestDegrade:
    def test_high_corruption_degrades_to_plain(self):
        """Unrecoverable streams must fall back to the flat uncompressed
        ring — degraded, never silently wrong."""
        n = 8
        data = _data(n)
        exact = np.sum(np.stack(data), axis=0, dtype=np.float64)
        cluster = SimCluster(
            n, faults=FaultPlan(seed=3, corrupt_rate=0.9), trace=TraceLog()
        )
        result = run(
            FAMILIES["hzccl_hierarchical_allreduce"], cluster, data, CONFIG,
            nodemap=NodeMap.regular(n, 2),
        )
        assert result.degraded
        for out in result.outputs:
            np.testing.assert_allclose(out, exact, rtol=1e-4, atol=1e-4)
        assert cluster.trace.fault_summary().get("DEGRADE", 0) >= 1


class TestFacade:
    def test_api_dispatches_on_nodemap(self):
        n = 8
        data = _data(n)
        api = HZCCL(config=CONFIG)
        nodemap = NodeMap.regular(n, 2)
        exact = np.sum(np.stack(data), axis=0, dtype=np.float64)
        for kernel in ("hzccl", "mpi"):
            result = api.allreduce(data, kernel=kernel, nodemap=nodemap)
            np.testing.assert_allclose(
                result.outputs[0], exact, atol=n * EB + 1e-4
            )

    def test_api_rejects_non_hierarchical_kernels_with_nodemap(self):
        api = HZCCL(config=CONFIG)
        with pytest.raises(ValueError):
            api.allreduce(
                _data(8), kernel="ccoll", nodemap=NodeMap.regular(8, 2)
            )
