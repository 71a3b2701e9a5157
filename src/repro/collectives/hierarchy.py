"""Two-level hierarchical allreduce entry points.

Both kernels run the same
:func:`~repro.schedule.hierarchical_allreduce_schedule` — per-node
binomial reduce onto leaders, the selected inter-node family over the
leaders, binomial broadcast back down — and differ only in the codec:

* :func:`mpi_hierarchical_allreduce` — plain floats at every level;
* :func:`hzccl_hierarchical_allreduce` — the paper's co-design lifted to
  two levels: each rank compresses its ``n_nodes`` blocks once, *every*
  fold at *both* levels is an exact integer-domain homomorphic reduce,
  and each rank decodes once at the end.  Because quantisation happens
  exactly once per input, the result is bit-identical to a flat fused
  reduction over the same block split — hierarchy changes the time, not
  the answer.

``inter=None`` defers to :func:`~repro.schedule.select_inter_family` on
the cluster's network model — the fabric-aware default.
"""

from __future__ import annotations

import numpy as np

from ..runtime.cluster import SimCluster
from ..runtime.nodemap import NodeMap
from . import rules
from .base import CollectiveResult
from .interpreter import Family, run
from .ring import MPI_ALLREDUCE

__all__ = ["mpi_hierarchical_allreduce", "hzccl_hierarchical_allreduce"]

MPI_HIERARCHICAL_ALLREDUCE = Family(
    "mpi_hierarchical_allreduce", **rules.PLACED_ALLREDUCE
)
# degrade-to-plain: rerun the whole collective on the flat uncompressed
# ring (same contract as the other hzccl kernels)
HZCCL_HIERARCHICAL_ALLREDUCE = Family(
    "hzccl_hierarchical_allreduce", **rules.PLACED_ALLREDUCE,
    fallback=MPI_ALLREDUCE,
)


def mpi_hierarchical_allreduce(
    cluster: SimCluster,
    local_data: list[np.ndarray],
    nodemap: NodeMap,
    inter: str | None = None,
) -> CollectiveResult:
    """Plain hierarchical Allreduce (float adds at both levels)."""
    return run(
        MPI_HIERARCHICAL_ALLREDUCE, cluster, local_data,
        nodemap=nodemap, inter=inter,
    )


def hzccl_hierarchical_allreduce(
    cluster: SimCluster,
    local_data: list[np.ndarray],
    config,
    nodemap: NodeMap,
    inter: str | None = None,
) -> CollectiveResult:
    """Homomorphic hierarchical Allreduce: compressed at every level.

    Cost shape per rank: ``n_nodes·CPR`` once, one HPR fold of the full
    vector per binomial step plus the inter-node family's folds at the
    leaders, and a single batched DPR decode — against the flat fused
    ring's ``n_ranks·CPR + (n_ranks−1)·HPR`` *invocations*, which is
    where the high-rank-count op-overhead dip of Fig. 10 comes from.
    """
    return run(
        HZCCL_HIERARCHICAL_ALLREDUCE, cluster, local_data, config,
        nodemap=nodemap, inter=inter,
    )
