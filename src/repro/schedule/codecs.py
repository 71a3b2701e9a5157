"""Payload codecs: the data-plane strategies a schedule executes under.

A :class:`PayloadCodec` supplies the *meaning* of the IR's abstract verbs
— what ``prepare``/``pack``/``fold``/``finalize`` do to rank state, which
kernel runs, and which virtual-clock bucket it is charged to:

===============  ==========  ===============  ====================  ===============
codec            wire        encode           fold                  decode
===============  ==========  ===============  ====================  ===============
plain            raw floats  —                float add (CPT)       —
DOC (C-Coll)     compressed  CPR per block    DPR + CPT per round   DPR per block
homomorphic      compressed  one CPR sweep    HPR ``reduce_fused``  one DPR sweep
===============  ==========  ===============  ====================  ===============

"Sweep" is literal: the homomorphic codec hands every block of a
``prepare`` / ``finalize`` to **one** ``FZLight.compress`` /
``FZLight.decompress`` call, which runs a single kernel pass over the
concatenated block grid (the paper's compress-once / decode-once;
``Discipline.finalize_batched=True`` in the cost model).  The DOC codecs
stay one kernel invocation per block on purpose — that *is* the C-Coll
discipline (``finalize_batched=False``), and the baseline must not get
faster by accident.

Rank state is ``state[rank][block_id]``: plain ``np.ndarray`` blocks for
the plain codec, :class:`~repro.compression.format.CompressedField`
streams for the compressed ones (the homomorphic codec's whole point is
that state *stays* compressed across every fold).

``slots`` maps a phase's abstract slot name to the user-facing span name;
``None`` skips the phase entirely (a plain ring has no compress phase)
and ``""`` runs the phase without opening a span (the rooted reduce's
historical un-spanned gather).
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

import numpy as np

from ..compression.fzlight import FZLight
from ..homomorphic.hzdynamic import HZDynamic
from ..runtime.cluster import SimCluster
from .ir import CommOp

__all__ = [
    "SYNC_OVERHEAD_S",
    "PayloadCodec",
    "PlainCodec",
    "DocReduceCodec",
    "DocGatherCodec",
    "HomomorphicCodec",
    "CompressedBcastCodec",
]

#: size-synchronisation bookkeeping per rank ("OTHER" bucket)
SYNC_OVERHEAD_S = 2e-6

State = list[dict[Hashable, Any]]


class PayloadCodec:
    """Base codec: raw floats on the wire, no per-verb compute.

    Subclasses override the verbs they charge for.  ``items`` returned by
    :meth:`pack` are one wire object per block id (``np.ndarray`` or
    ``CompressedField``) — the executor sums their ``nbytes`` for round
    accounting and hands them back to ``fold``/``store`` on the receive
    side.
    """

    #: compressed streams on the wire → validated channel delivery.
    compressed_wire = False
    #: slot → span name overrides (None = skip phase, "" = no span).
    slots: dict[str, str | None] = {}

    def __init__(self, cluster: SimCluster) -> None:
        self.cluster = cluster

    def phase_name(self, slot: str) -> str | None:
        return self.slots.get(slot, slot)

    # ------------------------------------------------------------------ #
    def prepare(self, rank: int, blocks, state: State) -> None:
        """Pre-schedule encode of ``blocks`` in place (setup phase)."""

    def pack(self, rank: int, blocks, state: State) -> tuple[Any, ...]:
        """Produce the wire items for one comm (may charge encode time)."""
        return tuple(state[rank][b] for b in blocks)

    def fold(self, rank, blocks, items: Sequence[Any], state, fresh=True):
        """Reduce ``items`` into the rank's partials for ``blocks``."""
        raise NotImplementedError

    def store(self, rank: int, blocks, items: Sequence[Any], state) -> None:
        for b, item in zip(blocks, items):
            state[rank][b] = item

    def fold_fused(self, rank: int, blocks, state: State, fanin: int,
                   out: Hashable = "fused") -> None:
        raise NotImplementedError

    def finalize(self, rank: int, blocks, state: State) -> None:
        """Post-schedule decode of ``blocks`` in place."""

    def finalize_local(self, rank: int, blocks, state: State) -> None:
        """Decode/copy the rank's own contribution (uncharged in the model)."""

    def degrade_receive(self, comm: CommOp, state: State) -> int:
        """Per-op fallback for ``degrade="op"`` comms; returns wire bytes."""
        raise NotImplementedError


class PlainCodec(PayloadCodec):
    """The "MPI" baseline: raw float blocks, folds are CPT float adds."""

    slots = {"setup": None, "finalize": None}

    def fold(self, rank, blocks, items, state, fresh=True):
        with self.cluster.timed(rank, "CPT"):
            for b, item in zip(blocks, items):
                # initial blocks are views into caller arrays, so the fold
                # must allocate rather than accumulate in place
                state[rank][b] = state[rank][b] + item


class _CompressedCodec(PayloadCodec):
    compressed_wire = True

    def __init__(self, cluster: SimCluster, config) -> None:
        super().__init__(cluster)
        self.comp = FZLight(
            block_size=config.block_size,
            n_threadblocks=config.n_threadblocks,
        )
        self.eb = config.error_bound

    def _compress_sweep(self, rank: int, blocks, state: State) -> None:
        """Encode ``blocks`` in place with one CPR sweep, charged once."""
        mine = state[rank]
        with self.cluster.timed(rank, "CPR"):
            fields = self.comp.compress(
                [mine[b] for b in blocks], abs_eb=self.eb
            )
        mine.update(zip(blocks, fields))


class DocReduceCodec(_CompressedCodec):
    """C-Coll's DOC reduce-scatter: every round pays CPR → wire → DPR → CPT.

    One kernel invocation per block, never a sweep (see the module table).
    """

    slots = {"setup": None, "exchange": "doc-exchange", "finalize": None}

    def pack(self, rank, blocks, state):
        with self.cluster.timed(rank, "CPR"):
            return tuple(
                self.comp.compress(state[rank][b], abs_eb=self.eb)
                for b in blocks
            )

    def fold(self, rank, blocks, items, state, fresh=True):
        for b, item in zip(blocks, items):
            with self.cluster.timed(rank, "DPR"):
                decoded = self.comp.decompress(item)
            with self.cluster.timed(rank, "CPT"):
                state[rank][b] = state[rank][b] + decoded


class DocGatherCodec(_CompressedCodec):
    """C-Coll's allgather: compress once, forward bytes, decode per block.

    One kernel invocation per block on both sides, never a sweep.
    """

    slots = {"setup": "compress", "finalize": "decompress"}

    def __init__(self, cluster: SimCluster, config) -> None:
        super().__init__(cluster, config)
        self._plain: dict[tuple[int, Hashable], np.ndarray] = {}

    def prepare(self, rank, blocks, state):
        for b in blocks:
            self._plain[(rank, b)] = state[rank][b]
            with self.cluster.timed(rank, "CPR"):
                state[rank][b] = self.comp.compress(
                    state[rank][b], abs_eb=self.eb
                )
        self.cluster.clocks[rank].charge("OTHER", SYNC_OVERHEAD_S)  # size sync

    def finalize(self, rank, blocks, state):
        # one decode invocation per foreign block — the DOC discipline has
        # no batched decode
        for b in blocks:
            with self.cluster.timed(rank, "DPR"):
                state[rank][b] = self.comp.decompress(state[rank][b])

    def finalize_local(self, rank, blocks, state):
        for b in blocks:
            state[rank][b] = np.asarray(
                self._plain[(rank, b)], dtype=np.float32  # local copy
            )


class HomomorphicCodec(_CompressedCodec):
    """hZCCL: compress once, fold compressed with HPR, decode once.

    "Once" is one kernel sweep per call: ``prepare`` / ``finalize`` pass
    their whole ``blocks`` tuple to a single ``compress`` / ``decompress``.
    """

    slots = {"setup": "compress", "finalize": "decompress"}

    def __init__(self, cluster: SimCluster, config) -> None:
        super().__init__(cluster, config)
        self.engine = HZDynamic()

    def prepare(self, rank, blocks, state):
        self._compress_sweep(rank, blocks, state)

    def fold(self, rank, blocks, items, state, fresh=True):
        with self.cluster.timed(rank, "HPR"):
            for b, item in zip(blocks, items):
                # one fused fold of the local partial with the incoming
                # compressed block (k = 2 instance of the k-way kernel)
                state[rank][b] = self.engine.reduce_fused(
                    (state[rank][b], item)
                )

    def fold_fused(self, rank, blocks, state, fanin, out="fused"):
        with self.cluster.timed(rank, "HPR"):
            state[rank][out] = self.engine.reduce_fused(
                [state[rank][b] for b in blocks]
            )

    def finalize(self, rank, blocks, state):
        mine = state[rank]
        with self.cluster.timed(rank, "DPR"):
            decoded = self.comp.decompress([mine[b] for b in blocks])
        mine.update(zip(blocks, decoded))

    # executed (and charged) like any decode, but booked as the paper's
    # uncharged own-block decompress by the cost model
    finalize_local = finalize


class CompressedBcastCodec(_CompressedCodec):
    """Compressed broadcast: CPR at the root, per-rank validated DPR.

    A rank whose stream is unrecoverable degrades *individually*: the
    root re-sends that rank's share plain (``degrade_receive``).
    """

    slots = {"setup": "compress", "finalize": "decompress"}

    def __init__(self, cluster: SimCluster, config, data: np.ndarray) -> None:
        super().__init__(cluster, config)
        self.data = data

    def prepare(self, rank, blocks, state):
        self._compress_sweep(rank, blocks, state)

    def store(self, rank, blocks, items, state):
        for b, item in zip(blocks, items):
            with self.cluster.timed(rank, "DPR"):
                state[rank][b] = self.comp.decompress(item)

    def degrade_receive(self, comm, state):
        self.cluster.charge_comm(comm.dst, self.data.nbytes)
        for b in comm.blocks:
            state[comm.dst][b] = self.data.copy()
        return self.data.nbytes
