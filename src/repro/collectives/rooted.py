"""Root-based collectives: Reduce and Bcast (with compressed variants).

The C-Coll framework the paper builds on covers *all* MPI collectives;
this module rounds out the repo's coverage with the two root-based ones
that compose naturally with the ring machinery:

* **Reduce** — ring Reduce_scatter followed by a gather of the reduced
  blocks to the root.  The hZCCL variant gathers the blocks *compressed*
  and decompresses only at the root: non-root ranks never run a single
  decompression, an even stronger asymmetry than the Allreduce fusion.
* **Direct Reduce** — every rank compresses its full vector once, the
  compressed streams gather to the root in one flat exchange, and the root
  folds all ``N`` operands with **one fused k-way homomorphic reduction**
  (``N`` decodes + 1 encode, instead of the ``(N−1)·(2 decodes + 1
  encode)`` a pairwise fold pays) before decompressing once.  The best
  schedule at small/medium scale, where the flat gather's incast is cheaper
  than ``N − 1`` ring latencies.
* **Bcast** — root compresses once, the bytes ride a binomial tree, every
  rank decompresses once: ``1·CPR + (N−1 messages) + N−1 parallel DPR``.

All schedules come from :mod:`repro.schedule.generators`
(:func:`~repro.schedule.flat_gather`, :func:`~repro.schedule.direct_reduce`,
:func:`~repro.schedule.binomial_bcast`) and run as rows of the family
table under :func:`repro.collectives.interpreter.run`; the compressed
gather's two degrade situations (mid-gather stream loss vs. an already
degraded Reduce_scatter) both end on the one unspanned plain-gather row
below.
"""

from __future__ import annotations

import numpy as np

from ..runtime.cluster import SimCluster
from . import rules
from .base import CollectiveResult
from .hzccl import HZCCL_REDUCE_SCATTER_FUSED
from .interpreter import Family, run
from .ring import MPI_REDUCE_SCATTER

__all__ = [
    "mpi_reduce",
    "hzccl_reduce",
    "hzccl_reduce_direct",
    "mpi_bcast",
    "compressed_bcast",
]

# The gathers of reduced blocks to the root run inline under the Reduce's
# own span (they never were collectives of their own).
_PLAIN_GATHER = Family("plain_gather", span=None, **rules.ROOT_GATHER)
_PLAIN_GATHER_UNSPANNED = Family(
    "plain_gather_unspanned", span=None, **rules.ROOT_GATHER
)
# Degrade: decompress at the owners, gather the plain blocks (the aborted
# compressed gather's partial wire is not billed — its transfers never
# completed as a message).
_HZCCL_GATHER = Family(
    "hzccl_gather", span=None, **rules.ROOT_GATHER,
    fallback=_PLAIN_GATHER_UNSPANNED, compressed_input=True,
    bill_aborted_wire=False,
)
MPI_REDUCE = Family(
    "mpi_reduce", checks=(rules.check_root,),
    steps=(MPI_REDUCE_SCATTER, _PLAIN_GATHER),
)
HZCCL_REDUCE = Family(
    "hzccl_reduce", checks=(rules.check_root,),
    steps=(HZCCL_REDUCE_SCATTER_FUSED, _HZCCL_GATHER),
)
# Degrade: rerun as a plain rooted Reduce.
HZCCL_REDUCE_DIRECT = Family(
    "hzccl_reduce_direct",
    checks=(rules.check_arrays, rules.check_root),
    seed=rules.seed_vectors, gather=rules.gather_root_fused,
    fallback=MPI_REDUCE,
)
MPI_BCAST = Family(
    "mpi_bcast", checks=(rules.check_payload,),
    seed=rules.seed_root_payload, gather=rules.gather_replicas,
)
# Per-rank stream loss degrades *individually* (the stage's
# ``per_op_degrade``), so there is no family to fall back to.
COMPRESSED_BCAST = Family(
    "compressed_bcast", checks=(rules.check_payload,),
    seed=rules.seed_root_payload, gather=rules.gather_delivered,
)


def mpi_reduce(
    cluster: SimCluster, local_data: list[np.ndarray], root: int = 0
) -> CollectiveResult:
    """Plain Reduce: ring Reduce_scatter + gather of blocks to the root."""
    return run(MPI_REDUCE, cluster, local_data, root=root)


def hzccl_reduce(
    cluster: SimCluster, local_data: list[np.ndarray], config, root: int = 0
) -> CollectiveResult:
    """hZCCL Reduce: compressed Reduce_scatter, compressed gather, one
    decompression at the root only."""
    return run(HZCCL_REDUCE, cluster, local_data, config, root=root)


def hzccl_reduce_direct(
    cluster: SimCluster, local_data: list[np.ndarray], config, root: int = 0
) -> CollectiveResult:
    """hZCCL direct Reduce: flat compressed gather + one fused k-way fold.

    ``N·CPR (parallel) + gather + 1 fused N-way HPR + 1·DPR`` — the fused
    reduction engine folds all operands in a single pass, so the root's
    homomorphic work no longer scales with ``N`` decode/encode round trips.
    The result is byte-identical to any pairwise schedule.
    """
    return run(HZCCL_REDUCE_DIRECT, cluster, local_data, config, root=root)


def mpi_bcast(
    cluster: SimCluster, data: np.ndarray, root: int = 0
) -> CollectiveResult:
    """Plain binomial-tree broadcast of ``data`` from the root."""
    return run(MPI_BCAST, cluster, data, root=root)


def compressed_bcast(
    cluster: SimCluster, data: np.ndarray, config, root: int = 0
) -> CollectiveResult:
    """Compressed broadcast: one CPR at the root, compressed bytes on the
    tree, one DPR per receiving rank (all concurrent).

    Per-rank stream loss degrades *individually*
    (``CommOp(degrade="op")``): the root re-sends that rank's share plain
    while every other rank still decodes the compressed stream.
    """
    return run(COMPRESSED_BCAST, cluster, data, config, root=root)
