"""Hierarchical-vs-flat allreduce sweep (model + executed spot checks).

Shared backend for ``repro bench-hierarchy`` and
``benchmarks/bench_hierarchy.py``.  Two deterministic parts:

* :func:`model_sweep` — closed-form §III-C dry runs at figure scale
  (hundreds to thousands of ranks) across fabric topologies, comparing
  the flat fused ring against the two-level hierarchical schedule for
  both the plain and the homomorphic kernel;
* :func:`executed_sweep` — functional runs at small rank counts whose
  *deterministic* outputs (wire bytes; per-round modelled comm seconds,
  read back from the trace) are compared against the cost model's MPI
  bucket for the *same* schedule.  Measured compute times are
  wall-clock noise and are deliberately excluded, so the committed
  ``BENCH_hierarchy.json`` is exactly reproducible.

The plain kernel's executed comm must match the model to float
rounding (both charge ``transfer_time`` of identical message sizes);
the homomorphic kernel is compared with the model re-rated to the
data's *actual* compression ratio and a tolerance covering per-block
ratio variance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..collectives import (
    hzccl_hierarchical_allreduce,
    mpi_hierarchical_allreduce,
)
from ..compression.fzlight import FZLight
from ..core.analysis import error_bounds
from ..core.config import CollectiveConfig
from ..core.cost_model import (
    PAPER_BROADWELL,
    model_hzccl_allreduce,
    model_hzccl_hierarchical_allreduce,
    model_mpi_allreduce,
    model_mpi_hierarchical_allreduce,
)
from ..runtime import (
    DragonflyNetwork,
    FatTreeNetwork,
    NodeMap,
    SimCluster,
    TorusNetwork,
    TraceLog,
)
from ..schedule import select_inter_family

__all__ = [
    "FABRICS",
    "MODEL_RANKS",
    "SIZES_MB",
    "RANKS_PER_NODE",
    "EXEC_SHAPES",
    "HZ_COMM_RTOL",
    "model_sweep",
    "executed_sweep",
    "model_rows",
    "executed_rows",
]

MB = 1 << 20
#: modelled grid — figure scale, one NIC-sharing 8-rank node per switch port
MODEL_RANKS = (256, 1024)
RANKS_PER_NODE = 8
SIZES_MB = (4, 64)
FABRICS = {
    "torus": TorusNetwork(),
    "dragonfly": DragonflyNetwork(),
    "fattree": FatTreeNetwork(),
}
#: executed spot checks — (n_ranks, ranks_per_node); kept ≤ 64 ranks
EXEC_SHAPES = ((32, 4), (64, 8))
EXEC_ELEMENTS = 16384
EXEC_SEED = 11
#: allowed executed/modelled comm disagreement for the compressed kernel
#: (the model prices every block at the mean compression ratio)
HZ_COMM_RTOL = 0.15


def model_sweep(ranks=MODEL_RANKS) -> list[dict]:
    """Flat-vs-hierarchical closed forms over the fabric × size grid."""
    points = []
    for n in ranks:
        nodemap = NodeMap.regular(n, RANKS_PER_NODE)
        for mb in SIZES_MB:
            total = mb * MB
            for fabric, network in FABRICS.items():
                inter = select_inter_family(network, nodemap)
                points.append(
                    {
                        "n_ranks": n,
                        "ranks_per_node": RANKS_PER_NODE,
                        "size_mb": mb,
                        "fabric": fabric,
                        "inter": inter,
                        "flat_hzccl_s": model_hzccl_allreduce(
                            n, total, PAPER_BROADWELL, network
                        ).total_time,
                        "hier_hzccl_s": model_hzccl_hierarchical_allreduce(
                            nodemap, total, PAPER_BROADWELL, network
                        ).total_time,
                        "flat_mpi_s": model_mpi_allreduce(
                            n, total, PAPER_BROADWELL, network
                        ).total_time,
                        "hier_mpi_s": model_mpi_hierarchical_allreduce(
                            nodemap, total, PAPER_BROADWELL, network
                        ).total_time,
                    }
                )
    return points


def _exec_data(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(EXEC_SEED)
    return [
        np.cumsum(rng.standard_normal(EXEC_ELEMENTS)).astype(np.float32)
        for _ in range(n)
    ]


def _trace_comm(cluster: SimCluster) -> float:
    return sum(s.comm_time for s in cluster.trace.round_summaries())


def executed_sweep() -> list[dict]:
    """Functional hierarchical runs vs the model, deterministic parts only."""
    network = TorusNetwork()
    config = CollectiveConfig(network=network)
    points = []
    for n, rpn in EXEC_SHAPES:
        nodemap = NodeMap.regular(n, rpn)
        data = _exec_data(n)
        total = data[0].nbytes
        exact = np.sum(np.stack(data), axis=0)

        cluster = SimCluster(n, network=network, trace=TraceLog())
        plain = mpi_hierarchical_allreduce(cluster, data, nodemap, inter="ring")
        plain_comm = _trace_comm(cluster)
        # float32 sums associate differently across the two trees; the
        # disagreement is bounded by accumulation rounding, not algorithm
        np.testing.assert_allclose(
            plain.outputs[0], exact, rtol=1e-4,
            atol=1e-5 * float(np.max(np.abs(exact))),
        )
        plain_model = model_mpi_hierarchical_allreduce(
            nodemap, total, PAPER_BROADWELL, network, inter="ring"
        ).buckets["MPI"]

        # re-rate the model at the data's actual mean compression ratio so
        # the comparison isolates the *schedule* pricing, not the ratio
        ratio = FZLight().compress(
            data[0], abs_eb=config.error_bound
        ).compression_ratio
        cluster = SimCluster(n, network=network, trace=TraceLog())
        hz = hzccl_hierarchical_allreduce(
            cluster, data, config, nodemap, inter="ring"
        )
        hz_comm = _trace_comm(cluster)
        assert not hz.degraded
        err = max(float(np.max(np.abs(o - exact))) for o in hz.outputs)
        bound = error_bounds(n, config.error_bound, "hzccl").max_error
        assert err <= bound + 1e-12
        hz_model = model_hzccl_hierarchical_allreduce(
            nodemap, total, replace(PAPER_BROADWELL, ratio=ratio), network,
            inter="ring",
        ).buckets["MPI"]

        points.append(
            {
                "n_ranks": n,
                "ranks_per_node": rpn,
                "elements": EXEC_ELEMENTS,
                "inter": "ring",
                "plain_wire_bytes": plain.bytes_on_wire,
                "plain_comm_s": plain_comm,
                "plain_model_comm_s": plain_model,
                "hzccl_wire_bytes": hz.bytes_on_wire,
                "hzccl_comm_s": hz_comm,
                "hzccl_model_comm_s": hz_model,
                "compression_ratio": ratio,
            }
        )
    return points


# --------------------------------------------------------------------- #
# invariant checks + table rows (shared by CLI and pytest harness)
# --------------------------------------------------------------------- #
def model_rows(points: list[dict]) -> list[list]:
    """Assert the tentpole claim on each point; return printable rows.

    Hierarchical must *strictly* beat the flat fused ring for the
    homomorphic kernel on every fabric at every grid point (the
    acceptance bar is torus/dragonfly at n ≥ 256, ≥ 4 MB; the win is in
    fact uniform on this grid).
    """
    rows = []
    for p in points:
        assert p["hier_hzccl_s"] < p["flat_hzccl_s"], (
            f"hierarchical hzccl lost to flat ring at n={p['n_ranks']} "
            f"{p['size_mb']} MB on {p['fabric']}"
        )
        rows.append(
            [
                p["n_ranks"], p["size_mb"], p["fabric"], p["inter"],
                1e3 * p["flat_hzccl_s"], 1e3 * p["hier_hzccl_s"],
                p["flat_hzccl_s"] / p["hier_hzccl_s"],
                p["flat_mpi_s"] / p["hier_mpi_s"],
            ]
        )
    return rows


def executed_rows(points: list[dict]) -> list[list]:
    """Assert executed/modelled agreement; return printable rows."""
    rows = []
    for p in points:
        assert abs(p["plain_comm_s"] - p["plain_model_comm_s"]) <= (
            1e-9 * p["plain_model_comm_s"]
        ), f"plain comm mismatch at n={p['n_ranks']}"
        ratio = p["hzccl_comm_s"] / p["hzccl_model_comm_s"]
        assert 1 - HZ_COMM_RTOL <= ratio <= 1 + HZ_COMM_RTOL, (
            f"hzccl comm off model by {ratio:.3f}x at n={p['n_ranks']}"
        )
        assert p["hzccl_wire_bytes"] < p["plain_wire_bytes"]
        rows.append(
            [
                p["n_ranks"], p["ranks_per_node"],
                1e6 * p["plain_comm_s"], 1e6 * p["plain_model_comm_s"],
                1e6 * p["hzccl_comm_s"], 1e6 * p["hzccl_model_comm_s"],
                ratio, p["hzccl_wire_bytes"] / p["plain_wire_bytes"],
            ]
        )
    return rows
