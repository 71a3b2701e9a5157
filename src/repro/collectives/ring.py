"""Plain (no-compression) ring collectives — the "MPI" baseline.

Literal ring algorithms from Thakur et al. / Patarasuk & Yuan, the ones
MPICH selects for large messages and the ones every compressed variant in
this repo is structured around:

* ``reduce_scatter`` — ``N − 1`` rounds; in round ``j`` rank ``i`` sends its
  running partial of block ``(i − j) mod N`` and folds the incoming partial
  into block ``(i − j − 1) mod N``.  Rank ``i`` ends owning block
  ``(i + 1) mod N`` fully reduced.
* ``allgather`` — ``N − 1`` forwarding rounds.
* ``allreduce`` — reduce-scatter then allgather (bandwidth-optimal).

The round structure lives in :mod:`repro.schedule.generators` and the
seed → run → assemble skeleton in :mod:`repro.collectives.interpreter`;
this module only declares the three rows.  Every rank's arithmetic
executes for real; only the wire time is modelled.
"""

from __future__ import annotations

import numpy as np

from ..runtime.cluster import SimCluster
from . import rules
from .base import CollectiveResult
from .interpreter import Family, run

__all__ = ["mpi_reduce_scatter", "mpi_allgather", "mpi_allreduce"]

MPI_REDUCE_SCATTER = Family("mpi_reduce_scatter", **rules.REDUCE_SCATTER)
MPI_ALLGATHER = Family("mpi_allgather", **rules.ALLGATHER)
MPI_ALLREDUCE = Family(
    "mpi_allreduce", steps=(MPI_REDUCE_SCATTER, MPI_ALLGATHER)
)


def mpi_reduce_scatter(
    cluster: SimCluster, local_data: list[np.ndarray]
) -> CollectiveResult:
    """Ring Reduce_scatter with SUM; returns each rank's reduced block."""
    return run(MPI_REDUCE_SCATTER, cluster, local_data)


def mpi_allgather(
    cluster: SimCluster, chunks: list[np.ndarray]
) -> CollectiveResult:
    """Ring Allgather: every rank ends with the concatenation of all chunks.

    ``chunks[i]`` is the block rank ``i`` contributes — in the allreduce
    composition this is the reduced block ``(i + 1) mod N`` from
    reduce-scatter, and the output concatenation is in block order.
    """
    return run(MPI_ALLGATHER, cluster, chunks)


def mpi_allreduce(
    cluster: SimCluster, local_data: list[np.ndarray]
) -> CollectiveResult:
    """Ring Allreduce (reduce-scatter + allgather) with SUM."""
    return run(MPI_ALLREDUCE, cluster, local_data)
