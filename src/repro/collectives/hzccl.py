"""hZCCL collectives: homomorphic-compression-accelerated ring algorithms.

The paper's co-design (§III-C).  Differences from C-Coll:

* **Reduce_scatter** — every rank compresses its ``N`` blocks *once* in the
  first round (``N·CPR``); afterwards each round reduces the incoming
  compressed block into the local compressed partial with one homomorphic
  operation (HPR) — no per-round decompress/recompress.  The final round
  decompresses only the single owned block:
  ``N·CPR + (N−1)·HPR + 1·DPR`` (§III-C1).
* **Allreduce** — fuses the two stages: the Reduce_scatter stage *skips its
  final decompression* and hands its reduced block, still quantised,
  straight to the Allgather stage, which *skips its compression* (its
  first send codes that block, the encode the Reduce_scatter skipped),
  forwards bytes, and decodes every gathered block once at the end:
  ``N·CPR + (N−1)·HPR + (N−1)·DPR`` — the paper's count.  A rank's own
  block is only dequantised, in the same one decompress call as its
  foreign blocks and straight into the vector it returns.
* **Pipelined Allreduce** — the schedule-IR payoff: every ring round is
  split into chunks so the wire time of chunk ``s`` overlaps the
  homomorphic fold of chunk ``s − 1``
  (:func:`~repro.schedule.pipelined_ring_reduce_scatter`), something no
  monolithic send-then-fold loop could express.

All variants are rows of the family table: ring schedules run by the
:class:`~repro.schedule.ScheduleExecutor` under the
:class:`~repro.schedule.HomomorphicCodec`, interpreted by
:func:`repro.collectives.interpreter.run` — the rows below only name the
seed and gather rules and the plain family each one degrades to.

Accuracy: each input is quantised exactly once and all reductions are
exact in the integer domain, so the end-to-end error is bounded by
``N·eb`` per element *without* the per-round requantisation C-Coll pays.
"""

from __future__ import annotations

from . import rules
from .interpreter import Family
from .ring import MPI_ALLGATHER, MPI_ALLREDUCE, MPI_REDUCE_SCATTER


# Stage-level fallback: a degraded stage finishes on its plain twin (the
# outputs are then plain float blocks, fused hand-off or not) and the
# allreduce carries on from there.
HZCCL_REDUCE_SCATTER = Family(
    "hzccl_reduce_scatter", **rules.REDUCE_SCATTER,
    fallback=MPI_REDUCE_SCATTER,
)
#: the fused hand-off: no final decompression; inside a composed row the
#: ``outputs`` stay quantised for the next stage, run alone they are coded
HZCCL_REDUCE_SCATTER_FUSED = Family(
    "hzccl_reduce_scatter_fused", span="hzccl_reduce_scatter",
    **rules.REDUCE_SCATTER, fallback=MPI_REDUCE_SCATTER,
)
HZCCL_ALLGATHER_COMPRESSED = Family(
    "hzccl_allgather_compressed", **rules.ALLGATHER,
    fallback=MPI_ALLGATHER, compressed_input=True,
)
HZCCL_ALLREDUCE = Family(
    "hzccl_allreduce",
    steps=(HZCCL_REDUCE_SCATTER_FUSED, HZCCL_ALLGATHER_COMPRESSED),
)

# Whole-collective fallback: the two pipelined stages run inline under
# one span and own no fallback, so either one aborting reruns the whole
# allreduce plain.
_PIPELINED_REDUCE_SCATTER = Family(
    "pipelined_reduce_scatter", span=None,
    seed=rules.seed_chunked_blocks, gather=rules.gather_owned_chunks,
)
_PIPELINED_ALLGATHER = Family(
    "pipelined_allgather", span=None,
    seed=rules.seed_owned_chunks, gather=rules.gather_concat,
    compressed_input=True,
)
HZCCL_PIPELINED_ALLREDUCE = Family(
    "hzccl_pipelined_allreduce",
    checks=(rules.check_arrays,),
    steps=(_PIPELINED_REDUCE_SCATTER, _PIPELINED_ALLGATHER),
    fallback=MPI_ALLREDUCE,
)
