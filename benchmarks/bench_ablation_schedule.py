"""Ablation A6 — collective schedule: ring vs Rabenseifner.

The paper builds on ring collectives; MPICH's other large-message choice
is Rabenseifner's recursive halving/doubling (2·log2 N rounds instead of
2·(N−1)).  The homomorphic co-design is schedule-agnostic — compressed
blocks fold associatively — so both schedules must produce *byte-identical*
reductions, and the latency structure decides the winner:

* bandwidth-dominated (large messages): both move the same volume, ring
  and Rabenseifner tie to first order;
* latency-dominated (many ranks, small messages): Rabenseifner's
  logarithmic round count wins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.tables import format_table
from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime.cluster import SimCluster
from repro.runtime.network import NetworkModel

N_RANKS = 16
BANDWIDTH_NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=5e8, congestion_per_log2=0.2)
LATENCY_NET = NetworkModel(latency_s=2e-3, bandwidth_Bps=1e12, congestion_per_log2=0.0)


def _data(rng, size):
    return [
        np.cumsum(rng.normal(0, 0.05, size)).astype(np.float32)
        for _ in range(N_RANKS)
    ]


def measure():
    rng = np.random.default_rng(20240624)
    rows = []
    results = {}
    for regime, net, size in (
        ("bandwidth-bound", BANDWIDTH_NET, 400_000),
        ("latency-bound", LATENCY_NET, 3_200),
    ):
        local = _data(rng, size)
        config = CollectiveConfig(error_bound=1e-4, network=net)
        ring_mpi = run(FAMILIES["mpi_allreduce"], SimCluster(N_RANKS, network=net), local)
        rab_mpi = run(
            FAMILIES["rabenseifner_allreduce"],
            SimCluster(N_RANKS, network=net), local,
        )
        ring_hz = run(
            FAMILIES["hzccl_allreduce"], SimCluster(N_RANKS, network=net),
            local, config,
        )
        rab_hz = run(
            FAMILIES["hzccl_rabenseifner_allreduce"],
            SimCluster(N_RANKS, network=net), local, config,
        )
        results[regime] = (ring_mpi, rab_mpi, ring_hz, rab_hz)
        rows.append(
            [regime, 1e3 * ring_mpi.total_time, 1e3 * rab_mpi.total_time,
             1e3 * ring_hz.total_time, 1e3 * rab_hz.total_time]
        )
    return rows, results


def test_ablation_schedule(benchmark):
    rows, results = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["regime", "ring MPI ms", "Rab MPI ms", "ring hZCCL ms", "Rab hZCCL ms"],
            rows,
            title=f"Ablation A6: ring vs Rabenseifner schedules ({N_RANKS} ranks)",
        )
    )
    # byte-identical homomorphic results under both schedules
    for regime, (_, _, ring_hz, rab_hz) in results.items():
        for a, b in zip(ring_hz.outputs, rab_hz.outputs):
            np.testing.assert_array_equal(a, b)
    # latency regime: logarithmic rounds must win clearly for plain MPI
    _, rab_mpi, _, _ = results["latency-bound"]
    ring_mpi = results["latency-bound"][0]
    assert rab_mpi.total_time < 0.7 * ring_mpi.total_time
    # bandwidth regime: same volume moves either way (ties within 25%)
    ring_b, rab_b = results["bandwidth-bound"][0], results["bandwidth-bound"][1]
    assert rab_b.bytes_on_wire == pytest.approx(ring_b.bytes_on_wire, rel=0.02)
