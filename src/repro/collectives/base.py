"""Shared types and helpers for the collective implementations.

All three families (plain MPI, C-Coll, hZCCL) share:

* the block split — every rank's local array is cut into ``n_ranks`` blocks
  by index, so block *k* has the same length on every rank (a requirement
  for homomorphic compatibility);
* the :class:`CollectiveResult` report — per-rank outputs plus the timing
  breakdown from the simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..homomorphic.hzdynamic import PipelineStats
from ..runtime.clock import Breakdown
from ..runtime.cluster import SimCluster
from ..runtime.faults import FaultStats
from ..runtime.trace import TraceLog
from ..utils.validation import ensure_same_shape

__all__ = [
    "CollectiveResult",
    "channel_stats",
    "split_blocks",
    "validate_local_data",
]


@dataclass
class CollectiveResult:
    """Outcome of one simulated collective operation.

    Attributes
    ----------
    outputs : per-rank result arrays (the reduced chunk for
        Reduce_scatter; the full reduced array for Allreduce).
    breakdown : rank-averaged bucket times + critical-path total.
    bytes_on_wire : total bytes sent by all ranks over all rounds — the
        quantity network congestion acts on.
    pipeline_stats : hZ-dynamic pipeline selection counts (hZCCL only).
    degraded : the compressed path hit an unrecoverable stream and fell
        back to the plain uncompressed kernel (outputs are exact, not
        error-bounded-lossy, but the compression win was forfeited).
    fault_stats : fault/retry counters when a fault plan was active.
    trace : this operation's own scoped trace (rounds and span timestamps
        rebased to its start) when the cluster had tracing on; ``None``
        otherwise.  Feed it to :mod:`repro.obs` exporters.
    """

    outputs: list[np.ndarray]
    breakdown: Breakdown
    bytes_on_wire: int = 0
    pipeline_stats: PipelineStats | None = None
    degraded: bool = False
    fault_stats: FaultStats | None = None
    trace: TraceLog | None = None

    @property
    def total_time(self) -> float:
        return self.breakdown.total_time


def channel_stats(cluster: SimCluster) -> FaultStats | None:
    """The cluster channel's fault counters, or ``None`` on a healthy run."""
    return cluster.channel.stats if cluster.faults is not None else None


def validate_local_data(local_data: list[np.ndarray]) -> list[np.ndarray]:
    """Check the SPMD inputs: one equal-length float32 array per rank."""
    if not local_data:
        raise ValueError("need at least one rank's data")
    arrays = [np.ascontiguousarray(a, dtype=np.float32).ravel() for a in local_data]
    for a in arrays[1:]:
        ensure_same_shape(arrays[0], a, "per-rank arrays")
    return arrays


def split_blocks(data: np.ndarray, n_ranks: int) -> list[np.ndarray]:
    """Cut one rank's array into ``n_ranks`` blocks (block k same length on
    every rank; lengths differ by at most one element across k)."""
    return [np.ascontiguousarray(b) for b in np.array_split(data, n_ranks)]
