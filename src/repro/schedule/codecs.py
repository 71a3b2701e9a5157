"""Payload codecs: the data-plane strategies a schedule executes under.

A :class:`PayloadCodec` supplies the *meaning* of the IR's abstract verbs
— what ``prepare``/``pack``/``fold``/``finalize`` do to rank state, which
kernel runs, and which virtual-clock bucket it is charged to:

===============  ==========  ================  ====================  ================
codec            wire        encode            fold                  decode
===============  ==========  ================  ====================  ================
plain            raw floats  —                 float add (CPT)       —
DOC (C-Coll)     compressed  CPR per block     DPR + CPT per round   DPR per block
homomorphic      compressed  one quantise      HPR ``reduce_fused``  one DPR sweep
                             sweep; CPR codes  (decodes only the     per rank, into
                             what is sent,     received stream)      its result; the
                             once                                    own block only
                                                                     dequantised
===============  ==========  ================  ====================  ================

Each codec class declares its row **once**, as its ``discipline``: a
:class:`~repro.schedule.cost.Discipline` naming every verb's charges,
whether streams ride the wire compressed, whether a finalize is one
kernel sweep, and the phase ``slots``.  It is the only verb → kernel
table: the codec's methods time their kernels under the buckets it names
(:meth:`PayloadCodec._timed`), :func:`~repro.schedule.cost.schedule_cost`
prices a dry run with it, and ``repro.core.analysis`` counts the §III-C
operations off those dry runs.  :data:`CODECS` maps the codec kind a
family stage names to its class.

"Sweep" is literal: the homomorphic codec hands every block of a
``prepare`` / ``finalize`` to **one** ``FZLight.quantise`` /
``FZLight.decompress`` call, which runs a single kernel pass over the
concatenated block grid (the paper's compress-once / decode-once;
``finalize_batched=True``).  The executor hands such a codec a rank's
adjacent ``finalize`` and ``finalize_local`` ops as one ``finalize``
call, and a compressed codec's finalize decodes straight into one new
vector per call, in block-id order, leaving each block a view of it — the
result a gather of every block returns without a copy.  The DOC codecs
stay one kernel invocation per block on purpose — that *is* the C-Coll
discipline (``finalize_batched=False``), and the baseline must not get
faster by accident.

Rank state is ``state[rank][block_id]``: plain ``np.ndarray`` blocks for
the plain codec, :class:`~repro.compression.format.CompressedField`
streams for the compressed ones (the homomorphic codec's whole point is
that state *stays* compressed across every fold).  Inside a collective
the homomorphic codec keeps a rank's own blocks one step earlier, as
:class:`~repro.compression.format.QuantisedField` — the Lorenzo deltas
an encode would code: a block is coded when a comm first sends it (the
codec records the stream, and the rank keeps its quantised partial), a
fold adds a received stream into the rank's quantised partial in place
(dropping any stream recorded for it), and a finalize dequantises it
without a decode.  The table still prices the paper's ``N·CPR +
(N−1)·HPR + DPR``; the deferred encodes are charged to ``prepare``'s
bucket.  The executor ends a run with :meth:`PayloadCodec.seal`, which
swaps each quantised block for its recorded stream and codes the rest,
so a run hands back arrays and streams only — every run but the fused
hand-off inside one composed row, which the interpreter runs unsealed
so that the next stage takes the owned blocks still quantised.

``slots`` maps a phase's abstract slot name to the user-facing span name;
``None`` skips the phase entirely (a plain ring has no compress phase) —
in the executor and in the dry run alike.  Every phase that runs, runs
under a span.  A family stage that overrides them runs, and is priced,
under its codec's table with its own ``slots`` (:func:`discipline_of`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Hashable, Sequence

import numpy as np

from ..compression.format import QuantisedField
from ..compression.fzlight import FZLight
from ..homomorphic.hzdynamic import HZDynamic
from ..runtime.cluster import SimCluster
from .cost import Discipline

__all__ = [
    "SYNC_OVERHEAD_S",
    "PayloadCodec",
    "PlainCodec",
    "DocReduceCodec",
    "DocGatherCodec",
    "HomomorphicCodec",
    "CompressedBcastCodec",
    "CODECS",
    "discipline_of",
]

#: size-synchronisation bookkeeping per rank ("OTHER" bucket)
SYNC_OVERHEAD_S = 2e-6

State = list[dict[Hashable, Any]]

#: a compressed codec's span names for its encode and decode phases
_SPANNED = (("setup", "compress"), ("finalize", "decompress"))


class PayloadCodec:
    """Base codec: raw floats on the wire, no per-verb compute.

    Subclasses declare their ``discipline`` and override the verbs it
    charges, timing each kernel with :meth:`_timed`.  ``items`` returned
    by :meth:`pack` are one wire object per block id (``np.ndarray`` or
    ``CompressedField``) — the executor sums their ``nbytes`` for round
    accounting and hands them back to ``fold``/``store`` on the receive
    side.
    """

    #: the verb → kernel table; the base one charges nothing and skips no
    #: phase
    discipline = Discipline("base", compressed_wire=False)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # each verb's clock buckets in charge order, read once per class
        cls.buckets = {
            verb: tuple(b for b, _ in getattr(cls.discipline, verb))
            for verb in ("prepare", "pack", "fold", "finalize")
        }

    def __init__(self, cluster: SimCluster, config=None) -> None:
        self.cluster = cluster

    def _timed(self, rank: int, verb: str):
        """Time one ``verb`` kernel on ``rank``, charged to the bucket the
        table names first for that verb."""
        return self.cluster.timed(rank, self.buckets[verb][0])

    # ------------------------------------------------------------------ #
    def prepare(self, rank: int, blocks, state: State) -> None:
        """Pre-schedule encode of ``blocks`` in place (setup phase)."""

    def pack(self, rank: int, blocks, state: State) -> tuple[Any, ...]:
        """Produce the wire items for one comm (may charge encode time)."""
        return tuple([state[rank][b] for b in blocks])

    def fold(self, rank, blocks, items: Sequence[Any], state):
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

    def seal(self, rank: int, state: State) -> None:
        """End of run: leave ``rank``'s state in wire-ready types (a codec
        that defers coding codes what it still holds)."""

    def finalize_local(self, rank: int, blocks, state: State) -> None:
        """Decode/copy the rank's own contribution (uncharged in the model)."""


class PlainCodec(PayloadCodec):
    """The "MPI" baseline: raw float blocks, folds are CPT float adds."""

    discipline = Discipline(
        "plain", compressed_wire=False, fold=(("CPT", "cpt"),),
        slots=(("setup", None), ("finalize", None)),
    )

    def fold(self, rank, blocks, items, state):
        with self._timed(rank, "fold"):
            for b, item in zip(blocks, items):
                # initial blocks are views into caller arrays, so the fold
                # must allocate rather than accumulate in place
                state[rank][b] = state[rank][b] + item


class _CompressedCodec(PayloadCodec):
    def __init__(self, cluster: SimCluster, config) -> None:
        super().__init__(cluster)
        self.comp = FZLight(
            block_size=config.block_size,
            n_threadblocks=config.n_threadblocks,
        )
        self.eb = config.error_bound

    def finalize(self, rank, blocks, state):
        """Decode ``blocks`` in one ``decompress`` sweep, straight into one
        new vector in block-id order: each block becomes its view of it, so
        a gather of every block has nothing left to copy."""
        mine = state[rank]
        blocks = sorted(blocks)
        fields = [mine[b] for b in blocks]
        with self._timed(rank, "finalize"):
            result = np.empty(sum([f.n for f in fields]), dtype=np.float32)
            decoded = self.comp.decompress(fields, out=result)
        mine.update(zip(blocks, decoded))


class DocReduceCodec(_CompressedCodec):
    """C-Coll's DOC reduce-scatter: every round pays CPR → wire → DPR → CPT.

    One kernel invocation per block, never a sweep (see the module table).
    """

    discipline = Discipline(
        "doc-reduce", compressed_wire=True, pack=(("CPR", "cpr"),),
        fold=(("DPR", "dpr"), ("CPT", "cpt")),
        slots=(("setup", None), ("exchange", "doc-exchange"),
               ("finalize", None)),
    )

    def pack(self, rank, blocks, state):
        with self._timed(rank, "pack"):
            return tuple(
                self.comp.compress(state[rank][b], abs_eb=self.eb)
                for b in blocks
            )

    def fold(self, rank, blocks, items, state):
        decode, add = self.buckets["fold"]
        for b, item in zip(blocks, items):
            with self.cluster.timed(rank, decode):
                decoded = self.comp.decompress(item)
            with self.cluster.timed(rank, add):
                state[rank][b] = state[rank][b] + decoded


class DocGatherCodec(_CompressedCodec):
    """C-Coll's allgather: compress once, forward bytes, decode per block.

    One kernel invocation per block on both sides, never a sweep.
    """

    discipline = Discipline(
        "doc-gather", compressed_wire=True, prepare=(("CPR", "cpr"),),
        finalize=(("DPR", "dpr"),), finalize_batched=False, slots=_SPANNED,
    )

    def __init__(self, cluster: SimCluster, config) -> None:
        super().__init__(cluster, config)
        self._plain: dict[tuple[int, Hashable], np.ndarray] = {}

    def prepare(self, rank, blocks, state):
        for b in blocks:
            self._plain[(rank, b)] = state[rank][b]
            with self._timed(rank, "prepare"):
                state[rank][b] = self.comp.compress(
                    state[rank][b], abs_eb=self.eb
                )
        self.cluster.clocks[rank].charge("OTHER", SYNC_OVERHEAD_S)  # size sync

    def finalize(self, rank, blocks, state):
        # one decode invocation per foreign block — the DOC discipline has
        # no batched decode
        for b in blocks:
            with self._timed(rank, "finalize"):
                state[rank][b] = self.comp.decompress(state[rank][b])

    def finalize_local(self, rank, blocks, state):
        for b in blocks:
            state[rank][b] = np.asarray(
                self._plain[(rank, b)], dtype=np.float32  # local copy
            )


class HomomorphicCodec(_CompressedCodec):
    """hZCCL: compress once, fold compressed with HPR, decode once.

    A rank's own blocks stay quantised (:class:`~repro.compression.format.
    QuantisedField`) for the whole run: ``prepare`` is one quantise sweep,
    ``pack`` codes a quantised block the first time a comm sends it and
    records that stream (a later send of the same block reuses it; a fold
    into the block drops it), a fold decodes only the received stream and
    adds it into the rank's partial in place, and ``finalize`` dequantises
    a quantised block without decoding anything.  Coding is charged where
    the table prices it, to ``prepare``'s bucket.  The run's ``seal``
    swaps each quantised block for its recorded stream and codes the ones
    no comm sent; an unsealed run hands its quantised blocks to the next
    stage of the collective instead (the fused hand-off: the allgather's
    first send codes the owned block, and its finalize dequantises it).
    "Once" is one kernel sweep per call: ``prepare`` / ``finalize`` pass
    their whole ``blocks`` tuple to a single ``quantise`` / ``decompress``
    — the executor hands a rank's adjacent ``finalize`` and
    ``finalize_local`` over as one call, so a rank decodes its foreign
    streams and dequantises its own block in one sweep, into its result
    vector.  A k-way ``fold_fused`` is charged like a fold.
    """

    discipline = Discipline(
        "hz-reduce", compressed_wire=True, prepare=(("CPR", "cpr"),),
        fold=(("HPR", "hpr"),), finalize=(("DPR", "dpr"),), slots=_SPANNED,
    )

    def __init__(self, cluster: SimCluster, config) -> None:
        super().__init__(cluster, config)
        self.engine = HZDynamic()
        #: rank → {block: the stream a comm sent of its quantised block}
        self._sent: dict[int, dict[Hashable, Any]] = {}

    def prepare(self, rank, blocks, state):
        mine = state[rank]
        with self._timed(rank, "prepare"):
            held = self.comp.quantise([mine[b] for b in blocks], abs_eb=self.eb)
        mine.update(zip(blocks, held))

    def _streams(self, rank: int, blocks, mine: dict) -> list:
        """``blocks`` in wire form: a stream as held, a quantised block as
        its recorded stream — coded once, in one sweep with the call's
        other uncoded blocks, charged as the prepare encode it was
        deferred from."""
        sent = self._sent.setdefault(rank, {})
        fresh = [
            b for b in blocks
            if isinstance(mine[b], QuantisedField) and b not in sent
        ]
        if fresh:
            with self._timed(rank, "prepare"):
                fields = self.comp.compress([mine[b] for b in fresh])
            sent.update(zip(fresh, fields))
        return [
            sent[b] if isinstance(mine[b], QuantisedField) else mine[b]
            for b in blocks
        ]

    def pack(self, rank, blocks, state):
        return tuple(self._streams(rank, blocks, state[rank]))

    def seal(self, rank, state):
        mine = state[rank]
        held = [b for b, v in mine.items() if isinstance(v, QuantisedField)]
        if held:
            mine.update(zip(held, self._streams(rank, held, mine)))
        self._sent.pop(rank, None)

    def _drop_sent(self, rank: int, blocks) -> None:
        """Forget the streams recorded for ``blocks``: a fold changed them."""
        sent = self._sent.get(rank)
        if sent:
            for b in blocks:
                sent.pop(b, None)

    def fold(self, rank, blocks, items, state):
        mine = state[rank]
        with self._timed(rank, "fold"):
            for b, item in zip(blocks, items):
                # one fused fold of the local partial with the incoming
                # compressed block (k = 2 instance of the k-way kernel)
                mine[b] = self.engine.reduce_fused((mine[b], item))
        self._drop_sent(rank, blocks)

    def fold_fused(self, rank, blocks, state, fanin, out="fused"):
        mine = state[rank]
        with self._timed(rank, "fold"):
            mine[out] = self.engine.reduce_fused([mine[b] for b in blocks])
        # a quantised operand was folded in place: the result holds it now
        for b in blocks:
            if isinstance(mine[b], QuantisedField):
                del mine[b]
        self._drop_sent(rank, (*blocks, out))

    # executed (and charged) like any decode — in the same sweep as the
    # foreign blocks when it follows their finalize — but booked as the
    # paper's uncharged own-block decompress by the cost model
    finalize_local = _CompressedCodec.finalize


class CompressedBcastCodec(_CompressedCodec):
    """Compressed broadcast (C-Coll's Bcast): CPR once at the root, the
    stream forwarded down the tree as it arrived, one DPR on every other
    rank."""

    discipline = Discipline(
        "hz-bcast", compressed_wire=True, prepare=(("CPR", "cpr"),),
        finalize=(("DPR", "dpr"),), slots=_SPANNED,
    )

    def prepare(self, rank, blocks, state):
        mine = state[rank]
        with self._timed(rank, "prepare"):
            fields = self.comp.compress(
                [mine[b] for b in blocks], abs_eb=self.eb
            )
        mine.update(zip(blocks, fields))


#: codec kind (what a family stage and a
#: :class:`~repro.schedule.mp_executor.CodecSpec` name) → codec class
CODECS: dict[str, type[PayloadCodec]] = {
    "plain": PlainCodec,
    "doc-reduce": DocReduceCodec,
    "doc-gather": DocGatherCodec,
    "homomorphic": HomomorphicCodec,
    "compressed-bcast": CompressedBcastCodec,
}


def discipline_of(kind: str, slots=None) -> Discipline:
    """Codec ``kind``'s table, with ``slots`` replacing its phase slots
    when given (a family stage that skips or renames phases)."""
    table = CODECS[kind].discipline
    return table if slots is None else replace(table, slots=slots)
