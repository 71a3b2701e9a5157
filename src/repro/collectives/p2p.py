"""Message-level (point-to-point) collective implementations.

Independent re-implementations of the ring collectives on top of the
MPI-flavoured :class:`~repro.runtime.communicator.Communicator` — written
the way an MPI program is written (``sendrecv`` per rank per round, tags
for rounds) rather than round-synchronously.  They exist to cross-validate
:mod:`repro.collectives.ring` / :mod:`repro.collectives.hzccl`: both
formulations must produce identical reduction results, and the
integration tests hold them to that.

Timing here is message-causal (each rank's virtual clock advances along
its own dependency chain), which also provides an independent check of
the bulk-synchronous round-time approximation.
"""

from __future__ import annotations

import time

import numpy as np

from ..compression.format import CompressedField
from ..compression.fzlight import FZLight
from ..homomorphic.hzdynamic import HZDynamic
from ..runtime.communicator import Communicator
from ..runtime.topology import Ring
from .base import split_blocks, validate_local_data

__all__ = ["p2p_reduce_scatter", "p2p_allreduce", "p2p_hzccl_allreduce"]


def p2p_reduce_scatter(
    comm: Communicator, local_data: list[np.ndarray]
) -> list[np.ndarray]:
    """Plain ring Reduce_scatter via sendrecv; returns per-rank blocks."""
    arrays = validate_local_data(local_data)
    n = comm.n_ranks
    if len(arrays) != n:
        raise ValueError(f"got {len(arrays)} rank arrays for {n} ranks")
    ring = Ring(n)
    bufs = [split_blocks(a, n) for a in arrays]

    for j in range(n - 1):
        # post all sends for this round, then drain receives — the
        # sequential analogue of MPI_Sendrecv on every rank
        for i in range(n):
            block = bufs[i][ring.send_block(i, j)]
            comm.send(i, ring.successor(i), block, block.nbytes, tag=j)
        for i in range(n):
            incoming = comm.recv(i, ring.predecessor(i), tag=j)
            start = time.perf_counter()
            blk = ring.recv_block(i, j)
            bufs[i][blk] = bufs[i][blk] + incoming
            comm.advance(i, time.perf_counter() - start)
    return [bufs[i][ring.owned_block(i)] for i in range(n)]


def p2p_allreduce(
    comm: Communicator, local_data: list[np.ndarray]
) -> list[np.ndarray]:
    """Plain ring Allreduce via sendrecv (reduce-scatter + allgather)."""
    n = comm.n_ranks
    ring = Ring(n)
    chunks = p2p_reduce_scatter(comm, local_data)
    gathered: list[dict[int, np.ndarray]] = [
        {ring.owned_block(i): chunks[i]} for i in range(n)
    ]
    for j in range(n - 1):
        for i in range(n):
            blk = ring.allgather_send_block(i, j)
            data = gathered[i][blk]
            comm.send(i, ring.successor(i), (blk, data), data.nbytes, tag=1000 + j)
        for i in range(n):
            blk, data = comm.recv(i, ring.predecessor(i), tag=1000 + j)
            gathered[i][blk] = data
    return [
        np.concatenate([gathered[i][k] for k in range(n)]) for i in range(n)
    ]


def p2p_hzccl_allreduce(
    comm: Communicator, local_data: list[np.ndarray], config
) -> list[np.ndarray]:
    """hZCCL fused Allreduce at message level.

    Structure mirrors the ``hzccl_allreduce`` row:
    compress all blocks once, homomorphically fold incoming compressed
    blocks for ``N − 1`` rounds, forward the compressed reduced blocks
    through the Allgather ring without recompressing, decompress once.
    """
    arrays = validate_local_data(local_data)
    n = comm.n_ranks
    if len(arrays) != n:
        raise ValueError(f"got {len(arrays)} rank arrays for {n} ranks")
    ring = Ring(n)
    comp = FZLight(block_size=config.block_size, n_threadblocks=config.n_threadblocks)
    engine = HZDynamic(collect_stats=False)
    eb = config.error_bound

    partial: list[list[CompressedField]] = []
    for i in range(n):
        start = time.perf_counter()
        partial.append(
            [comp.compress(b, abs_eb=eb) for b in split_blocks(arrays[i], n)]
        )
        comm.advance(i, time.perf_counter() - start)

    for j in range(n - 1):
        for i in range(n):
            field = partial[i][ring.send_block(i, j)]
            comm.send(i, ring.successor(i), field, field.nbytes, tag=j)
        for i in range(n):
            incoming = comm.recv(i, ring.predecessor(i), tag=j)
            start = time.perf_counter()
            blk = ring.recv_block(i, j)
            partial[i][blk] = engine.add(partial[i][blk], incoming)
            comm.advance(i, time.perf_counter() - start)

    gathered: list[dict[int, CompressedField]] = [
        {ring.owned_block(i): partial[i][ring.owned_block(i)]} for i in range(n)
    ]
    for j in range(n - 1):
        for i in range(n):
            blk = ring.allgather_send_block(i, j)
            field = gathered[i][blk]
            comm.send(i, ring.successor(i), (blk, field), field.nbytes, tag=1000 + j)
        for i in range(n):
            blk, field = comm.recv(i, ring.predecessor(i), tag=1000 + j)
            gathered[i][blk] = field

    outputs = []
    for i in range(n):
        start = time.perf_counter()
        outputs.append(
            np.concatenate([comp.decompress(gathered[i][k]) for k in range(n)])
        )
        comm.advance(i, time.perf_counter() - start)
    return outputs
