"""Collective algorithms over the simulated cluster.

Three kernels, all ring-based at heart:

* :mod:`~repro.collectives.ring` — plain MPI (no compression) baseline.
* :mod:`~repro.collectives.ccoll` — C-Coll, compression with the DOC
  workflow (the state-of-the-art baseline).
* :mod:`~repro.collectives.hzccl` — the paper's homomorphic co-design.

Every collective is one :class:`~repro.collectives.interpreter.Family`
row, declared in the module that documents its algorithm; ``FAMILIES``
maps each row's name to it, and the one interpreter runs any of them
(DESIGN.md §11)::

    run(FAMILIES["hzccl_allreduce"], cluster, local_data, config)
    run(FAMILIES["hzccl_reduce"], cluster, local_data, config, root=1)
"""

# importing the row modules declares their rows into FAMILIES
from . import batch, ccoll, hierarchy, hzccl, rabenseifner, ring, rooted  # noqa: F401
from .base import CollectiveResult, split_blocks, validate_local_data
from .interpreter import FAMILIES, Family, run
from .p2p import p2p_allreduce, p2p_hzccl_allreduce, p2p_reduce_scatter

__all__ = [
    "CollectiveResult",
    "Family",
    "FAMILIES",
    "run",
    "split_blocks",
    "validate_local_data",
    "p2p_reduce_scatter",
    "p2p_allreduce",
    "p2p_hzccl_allreduce",
]
