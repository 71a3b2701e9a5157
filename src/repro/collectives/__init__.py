"""Collective algorithms over the simulated cluster.

Three kernels, all ring-based at heart:

* :mod:`~repro.collectives.ring` — plain MPI (no compression) baseline.
* :mod:`~repro.collectives.ccoll` — C-Coll, compression with the DOC
  workflow (the state-of-the-art baseline).
* :mod:`~repro.collectives.hzccl` — the paper's homomorphic co-design.

Every named entry point is one :class:`~repro.collectives.interpreter.Family`
row plus a call to the one interpreter,
:func:`~repro.collectives.interpreter.run` (DESIGN.md §11); ``FAMILIES``
maps each row's name to it.
"""

from .base import CollectiveResult, split_blocks, validate_local_data
from .batch import hzccl_batched_reduce
from .ccoll import ccoll_allgather, ccoll_allreduce, ccoll_reduce_scatter
from .hierarchy import hzccl_hierarchical_allreduce, mpi_hierarchical_allreduce
from .interpreter import FAMILIES, Family, run
from .p2p import p2p_allreduce, p2p_hzccl_allreduce, p2p_reduce_scatter
from .rabenseifner import hzccl_rabenseifner_allreduce, rabenseifner_allreduce
from .hzccl import (
    hzccl_allgather_compressed,
    hzccl_allreduce,
    hzccl_pipelined_allreduce,
    hzccl_reduce_scatter,
)
from .ring import mpi_allgather, mpi_allreduce, mpi_reduce_scatter
from .rooted import (
    compressed_bcast,
    hzccl_reduce,
    hzccl_reduce_direct,
    mpi_bcast,
    mpi_reduce,
)
from .tuned import run_candidate, tuned_allreduce

__all__ = [
    "CollectiveResult",
    "Family",
    "FAMILIES",
    "run",
    "split_blocks",
    "validate_local_data",
    "mpi_reduce_scatter",
    "mpi_allgather",
    "mpi_allreduce",
    "ccoll_reduce_scatter",
    "ccoll_allgather",
    "ccoll_allreduce",
    "hzccl_reduce_scatter",
    "hzccl_allgather_compressed",
    "hzccl_allreduce",
    "hzccl_pipelined_allreduce",
    "p2p_reduce_scatter",
    "p2p_allreduce",
    "p2p_hzccl_allreduce",
    "mpi_reduce",
    "hzccl_reduce",
    "hzccl_reduce_direct",
    "mpi_bcast",
    "compressed_bcast",
    "hzccl_batched_reduce",
    "rabenseifner_allreduce",
    "hzccl_rabenseifner_allreduce",
    "mpi_hierarchical_allreduce",
    "hzccl_hierarchical_allreduce",
    "tuned_allreduce",
    "run_candidate",
]
