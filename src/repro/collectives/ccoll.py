"""C-Coll: compression-accelerated collectives with the DOC workflow.

The state-of-the-art baseline (Huang et al., IPDPS'24) the paper improves
on.  Messages travel compressed, but every collective-computation round
pays the full decompression–operation–compression cycle:

* **Reduce_scatter** — in round ``j`` rank ``i`` *compresses* its partial
  block (CPR), sends the bytes, *decompresses* the incoming block (DPR),
  and reduces it in the float domain (CPT): total
  ``(N−1)(CPR + DPR + CPT)`` (§III-C1).
* **Allgather** — contributors compress once (CPR), compressed bytes are
  forwarded ``N − 1`` rounds, and each rank decompresses what it received:
  ``CPR + (N−1)·DPR`` (§III-C2).

Both run the *same* ring schedules as the plain baseline — only the codec
differs (:class:`~repro.schedule.DocReduceCodec` recompresses per round,
:class:`~repro.schedule.DocGatherCodec` compresses once and decodes per
block).

Accuracy note: each DOC round requantises the running partial sum, so the
final error grows with the node count but stays bounded by
``(2N − 3)·eb`` per element — the controlled error propagation the C-Coll
paper proves.
"""

from __future__ import annotations

from . import rules
from .interpreter import Family
from .ring import MPI_ALLGATHER, MPI_REDUCE_SCATTER


CCOLL_REDUCE_SCATTER = Family(
    "ccoll_reduce_scatter", **rules.REDUCE_SCATTER,
    fallback=MPI_REDUCE_SCATTER,
)
CCOLL_ALLGATHER = Family(
    "ccoll_allgather", **rules.ALLGATHER, fallback=MPI_ALLGATHER
)
CCOLL_ALLREDUCE = Family(
    "ccoll_allreduce", steps=(CCOLL_REDUCE_SCATTER, CCOLL_ALLGATHER)
)
