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

import numpy as np

from ..runtime.cluster import SimCluster
from . import rules
from .base import CollectiveResult
from .interpreter import Family, run
from .rooted import MPI_REDUCE

__all__ = ["hzccl_batched_reduce"]

HZCCL_BATCHED_REDUCE = Family(
    "hzccl_batched_reduce",
    checks=(rules.check_root, rules.check_batch),
    seed=rules.seed_sessions, gather=rules.gather_session_folds,
    fallback=MPI_REDUCE, per_session=True,
)


def hzccl_batched_reduce(
    cluster: SimCluster,
    sessions: list[list[np.ndarray]],
    config,
    root: int = 0,
) -> CollectiveResult:
    """Reduce ``k`` same-shaped sessions to the root in one fused schedule.

    ``sessions[s]`` holds session ``s``'s per-rank contributions; each
    rank compresses its ``k`` vectors in one kernel sweep and the root
    decodes the ``k`` results in one (``n`` CPR + 1 DPR calls a batch,
    whatever ``k`` is).  Unlike
    the per-rank ``outputs`` convention of the single-session collectives,
    the returned ``outputs`` is indexed **by session**: ``outputs[s]`` is
    session ``s``'s reduced vector (held by the root).

    Degrade: an unrecoverable compressed stream aborts the whole batch
    and every session reruns as a plain rooted Reduce (the standard
    degrade-to-plain contract, wire billed for both attempts).
    """
    return run(HZCCL_BATCHED_REDUCE, cluster, sessions, config, root=root)
