"""Stragglers and degraded links change *timing*, never *values*.

The integration guarantee behind the fault model's layering: compute
slowdowns and bandwidth degradation act purely on the virtual clocks, so
a collective under a straggler plan must produce byte-identical outputs
to the fault-free run — with a strictly larger makespan.
"""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime import FaultPlan, NetworkModel, SimCluster

N_RANKS = 4
NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)
CONFIG = CollectiveConfig(
    error_bound=1e-3, block_size=8, n_threadblocks=3, network=NET
)
STRAGGLER = FaultPlan(seed=0, stragglers=(1,), straggler_factor=50.0)
SLOW_LINK = FaultPlan(seed=0, degraded_links=((0, 1, 0.01),))

OPS = {
    "mpi-allreduce": lambda cl, d: run(FAMILIES["mpi_allreduce"], cl, d),
    "mpi-reduce-scatter": lambda cl, d: run(FAMILIES["mpi_reduce_scatter"], cl, d),
    "ccoll-allreduce": lambda cl, d: run(FAMILIES["ccoll_allreduce"], cl, d, CONFIG),
    "hzccl-allreduce": lambda cl, d: run(FAMILIES["hzccl_allreduce"], cl, d, CONFIG),
    "hzccl-reduce-scatter": lambda cl, d: run(
        FAMILIES["hzccl_reduce_scatter"], cl, d, CONFIG,
    ),
    "hzccl-rabenseifner": lambda cl, d: run(
        FAMILIES["hzccl_rabenseifner_allreduce"], cl, d, CONFIG,
    ),
}


@pytest.fixture()
def data():
    rng = np.random.default_rng(0xFA57)
    return [
        np.cumsum(rng.normal(0, 0.05, 720)).astype(np.float32)
        for _ in range(N_RANKS)
    ]


@pytest.mark.parametrize("op_name", sorted(OPS))
def test_straggler_changes_timing_not_values(op_name, data):
    healthy = SimCluster(N_RANKS, network=NET)
    slow = SimCluster(N_RANKS, network=NET, faults=STRAGGLER)
    ref = OPS[op_name](healthy, data)
    out = OPS[op_name](slow, data)

    assert not out.degraded
    for a, b in zip(ref.outputs, out.outputs):
        np.testing.assert_array_equal(a, b)  # byte-identical values
    assert out.bytes_on_wire == ref.bytes_on_wire
    # a 50x straggler must dominate the critical path
    assert out.total_time > ref.total_time


@pytest.mark.parametrize("op_name", ["mpi-allreduce", "hzccl-allreduce"])
def test_degraded_link_changes_timing_not_values(op_name, data):
    healthy = SimCluster(N_RANKS, network=NET)
    slow = SimCluster(N_RANKS, network=NET, faults=SLOW_LINK)
    ref = OPS[op_name](healthy, data)
    out = OPS[op_name](slow, data)

    assert not out.degraded
    for a, b in zip(ref.outputs, out.outputs):
        np.testing.assert_array_equal(a, b)
    # the 100x-slower link stretches communication time
    slow_mpi = sum(c.buckets["MPI"] for c in slow.clocks)
    ref_mpi = sum(c.buckets["MPI"] for c in healthy.clocks)
    assert slow_mpi > ref_mpi
