"""Batched rooted reduce: many same-shaped sessions in one fused schedule.

The aggregation service's batching window coalesces ``k`` concurrent
reduction sessions (same element count, same dtype, same rank count)
into a single :func:`~repro.schedule.batched_fused_reduce` schedule: one
prepare per rank covering all of its session vectors (one CPR kernel
sweep over the rank's ``k`` vectors), one incast stream per rank carrying
the whole batch, and ``k`` fused k-way folds on the root — one per
session, each landing in its own ``("f", s)`` state key — before a single
batched decode (one DPR sweep over the ``k`` results).

Because the fused homomorphic fold is exact in the integer domain, the
coalesced batch is **bit-identical** to ``k`` independent reductions:
batching amortises the per-message α and the per-call setup without
changing a single decoded byte (pinned by the service property tests).
"""

from __future__ import annotations

from . import rules
from .interpreter import Family
from .rooted import MPI_REDUCE


HZCCL_BATCHED_REDUCE = Family(
    "hzccl_batched_reduce",
    checks=(rules.check_root, rules.check_batch),
    seed=rules.seed_sessions, gather=rules.gather_session_folds,
    fallback=MPI_REDUCE, per_session=True,
)
