"""Root-based collectives: Reduce and Bcast (with compressed variants).

The C-Coll framework the paper builds on covers *all* MPI collectives;
this module rounds out the repo's coverage with the two root-based ones
that compose naturally with the ring machinery:

* **Reduce** — ring Reduce_scatter followed by a gather of the reduced
  blocks to the root.  The hZCCL variant gathers the blocks *compressed*
  and decompresses only at the root: non-root ranks never run a single
  decompression, an even stronger asymmetry than the Allreduce fusion.
  The root's own reduced block arrives from the Reduce_scatter still
  quantised, so it is neither coded nor decoded, only dequantised.
* **Direct Reduce** — every rank compresses its full vector once, the
  compressed streams gather to the root in one flat exchange, and the root
  folds all ``N`` operands with **one fused k-way homomorphic reduction**
  (``N`` decodes + 1 encode, instead of the ``(N−1)·(2 decodes + 1
  encode)`` a pairwise fold pays) before decompressing once.  The best
  schedule at small/medium scale, where the flat gather's incast is cheaper
  than ``N − 1`` ring latencies.  It is the one-session run of the
  batched reduce's fused-fold incast: the same stage, session 0's ids.
* **Bcast** — root compresses once, each holder forwards the compressed
  bytes down a binomial tree (``⌈log₂ N⌉`` rounds, one receive per
  non-root), and every other rank decompresses once: ``1·CPR + (N−1
  messages) + N−1 parallel DPR``.  An unrecoverable stream aborts the
  tree and the broadcast reruns plain, like every other compressed row.

All schedules come from :mod:`repro.schedule.generators`
(:func:`~repro.schedule.flat_gather`,
:func:`~repro.schedule.batched_fused_reduce`,
:func:`~repro.schedule.binomial_bcast`) and run as rows of the family
table under :func:`repro.collectives.interpreter.run`; the compressed
gather's two degrade situations (mid-gather stream loss vs. an already
degraded Reduce_scatter) both end on the plain-gather row below, and
every phase of either gather runs under its span.
"""

from __future__ import annotations

from . import rules
from .hzccl import HZCCL_REDUCE_SCATTER_FUSED
from .interpreter import Family
from .ring import MPI_REDUCE_SCATTER


# The gathers of reduced blocks to the root run inline under the Reduce's
# own span (they never were collectives of their own).
_PLAIN_GATHER = Family("plain_gather", span=None, **rules.ROOT_GATHER)
# Degrade: decompress at the owners, gather the plain blocks (the aborted
# compressed gather's wire is billed on top, as every abort's is).
_HZCCL_GATHER = Family(
    "hzccl_gather", span=None, **rules.ROOT_GATHER,
    fallback=_PLAIN_GATHER, compressed_input=True,
)
MPI_REDUCE = Family(
    "mpi_reduce", checks=(rules.check_root,),
    steps=(MPI_REDUCE_SCATTER, _PLAIN_GATHER),
)
HZCCL_REDUCE = Family(
    "hzccl_reduce", checks=(rules.check_root,),
    steps=(HZCCL_REDUCE_SCATTER_FUSED, _HZCCL_GATHER),
)
# Session 0 of the batched reduce's stage.  Degrade: rerun as a plain
# rooted Reduce.
HZCCL_REDUCE_DIRECT = Family(
    "hzccl_reduce_direct",
    checks=(rules.check_arrays, rules.check_root),
    seed=rules.seed_session, gather=rules.gather_root_session,
    fallback=MPI_REDUCE,
)
MPI_BCAST = Family(
    "mpi_bcast", checks=(rules.check_payload,),
    seed=rules.seed_root_payload, gather=rules.gather_delivered,
)
# Degrade: rerun as a plain broadcast from the root's payload.
COMPRESSED_BCAST = Family(
    "compressed_bcast", checks=(rules.check_payload,),
    seed=rules.seed_root_payload, gather=rules.gather_delivered,
    fallback=MPI_BCAST,
)
