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
from ..schedule import (
    HomomorphicCodec,
    ScheduleExecutor,
    batched_fused_reduce,
)
from .base import (
    CollectiveResult,
    channel_stats,
    traced_collective,
    validate_local_data,
)
from .rooted import mpi_reduce

__all__ = ["hzccl_batched_reduce"]


def _validate_batch(sessions, n_ranks: int) -> list[list[np.ndarray]]:
    """Validate every session and pin the same-shape batching invariant."""
    if not sessions:
        raise ValueError("empty batch: need at least one session")
    batch = [validate_local_data(s) for s in sessions]
    for s, arrays in enumerate(batch):
        if len(arrays) != n_ranks:
            raise ValueError(
                f"session {s}: got {len(arrays)} rank arrays for "
                f"{n_ranks} ranks"
            )
        if arrays[0].shape != batch[0][0].shape:
            raise ValueError(
                f"session {s}: shape {arrays[0].shape} differs from "
                f"session 0 shape {batch[0][0].shape} (batches must be "
                "same-shaped)"
            )
    return batch


@traced_collective("hzccl_batched_reduce")
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
    n = cluster.n_ranks
    if not 0 <= root < n:
        raise IndexError(f"root {root} out of range for {n} ranks")
    batch = _validate_batch(sessions, n)
    k = len(batch)
    codec = HomomorphicCodec(cluster, config)
    state: list[dict] = [
        {("v", s, i): batch[s][i] for s in range(k)} for i in range(n)
    ]
    outcome = ScheduleExecutor(cluster, codec).run(
        batched_fused_reduce(n, k, root), state
    )
    if outcome.degraded:
        wire = outcome.wire
        outputs = []
        for arrays in batch:
            fallback = mpi_reduce(cluster, list(arrays), root)
            outputs.append(fallback.outputs[root])
            wire += fallback.bytes_on_wire
        return CollectiveResult(
            outputs=outputs,
            breakdown=cluster.breakdown(),
            bytes_on_wire=wire,
            pipeline_stats=codec.engine.stats,
            degraded=True,
            fault_stats=channel_stats(cluster),
        )
    outputs = [state[root][("f", s)] for s in range(k)]
    return CollectiveResult(
        outputs=outputs,
        breakdown=cluster.breakdown(),
        bytes_on_wire=outcome.wire,
        pipeline_stats=codec.engine.stats,
        degraded=False,
        fault_stats=channel_stats(cluster),
    )
