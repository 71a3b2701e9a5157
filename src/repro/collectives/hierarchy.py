"""Two-level hierarchical allreduce rows.

Both rows run the same
:func:`~repro.schedule.hierarchical_allreduce_schedule` — per-node
binomial reduce onto leaders, the selected inter-node family over the
leaders, binomial broadcast back down — and differ only in the codec:

* ``mpi_hierarchical_allreduce`` — plain floats at every level;
* ``hzccl_hierarchical_allreduce`` — the paper's co-design lifted to
  two levels: each rank compresses its ``n_nodes`` blocks once, *every*
  fold at *both* levels is an exact integer-domain homomorphic reduce,
  and each rank decodes once at the end.  Because quantisation happens
  exactly once per input, the result is bit-identical to a flat fused
  reduction over the same block split — hierarchy changes the time, not
  the answer.

Both rows read the bound ``nodemap`` (required) and ``inter``;
``inter=None`` defers to :func:`~repro.schedule.select_inter_family` on
the cluster's network model — the fabric-aware default.
"""

from __future__ import annotations

from . import rules
from .interpreter import Family
from .ring import MPI_ALLREDUCE


MPI_HIERARCHICAL_ALLREDUCE = Family(
    "mpi_hierarchical_allreduce", **rules.PLACED_ALLREDUCE
)
# degrade-to-plain: rerun the whole collective on the flat uncompressed
# ring (same contract as the other hzccl kernels)
HZCCL_HIERARCHICAL_ALLREDUCE = Family(
    "hzccl_hierarchical_allreduce", **rules.PLACED_ALLREDUCE,
    fallback=MPI_ALLREDUCE,
)
