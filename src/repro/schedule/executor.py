"""The schedule executor: the one round loop every collective runs on.

Everything the five legacy collectives hand-rolled in lock-step lives
here exactly once: channel delivery (what each ``CommOp.transport`` name
means is the :data:`TRANSPORT` table), per-round ``max_msg``/``end_round``
accounting, ``cluster.timed`` compute charging (delegated to the codec),
span recording via ``cluster.phase``, and the ``UnrecoverableStreamError``
→ ``channel.degrade()`` single degrade path (per-op degradation for
``degrade="op"`` comms).  Both planes run it: the simulator plays every
rank in one process; a multi-process worker plays its own rank and hands
the comms whose other end is elsewhere to a wire (see
:class:`ScheduleExecutor`).

Round accounting uses the *sent* payload size — the size the sender
scheduled, which the receivers' clocks synchronise on — never the
delivered size, which can transiently diverge under truncate/corrupt
faults.  Fault handling costs (retransmits, waits) are charged by the
channel inside the round and never change the round's wire term.

Execution order within a round replays the legacy loops exactly: first a
pack pass snapshots every sender's outgoing payload, then deliveries run
in comm order (receiver-ascending in the generators), folding or storing
as each arrives — so per-link fault indices, and therefore injected fault
sequences, are the same on both planes and unchanged by any refactor.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Hashable

from ..runtime.cluster import SimCluster
from ..runtime.faults import UnrecoverableStreamError
from .codecs import PayloadCodec, State
from .ir import CommOp, LocalOp, Round, Schedule

__all__ = ["Outcome", "ScheduleExecutor", "TRANSPORT", "carriage"]

#: pending-table sentinel: this staged block was lost to a per-op degrade
#: (``degrade_receive`` already patched state), so the later fold skips it
#: instead of dying on a missing key.
_DEGRADED = object()


#: What each ``CommOp.transport`` name means, per wire kind: *(who pays
#: the scheduled transfer, how the items ride)*.
#:
#: payer — ``"channel"``: the ride charges it, message by message (for
#: streams: each with its base charge); ``"link"``: one aggregate
#: ``charge_link`` ahead of the ride; ``"sender"`` / ``"receiver"``: that
#: rank's clock (the receiver's stands for ``wire_count`` copies on the
#: wire); ``None``: it was charged elsewhere.
#: ride — ``"plain"``: the reliable retrying path, all items as one
#: message; ``"stream"``: every compressed item validated on its own;
#: ``"raw"``: handed over untouched, no fault machinery.
TRANSPORT = {
    # (transport, compressed wire?): (payer, ride)
    ("link", False): ("channel", "plain"),
    ("link", True): ("channel", "stream"),
    ("bundle", False): ("channel", "plain"),
    ("bundle", True): ("link", "stream"),
    ("sender", False): ("sender", "raw"),
    ("sender", True): ("sender", "stream"),
    ("flow", False): ("receiver", "raw"),
    ("flow", True): ("receiver", "raw"),
    ("faults-only", False): (None, "raw"),
    ("faults-only", True): (None, "stream"),
}


def carriage(comm: CommOp, compressed: bool) -> tuple[str | None, str, int]:
    """``comm``'s :data:`TRANSPORT` row plus how many copies of the
    scheduled size a payer outside the channel puts on the wire (0: none,
    the channel's own charges are the whole bill)."""
    payer, ride = TRANSPORT[comm.transport, compressed]
    if payer in ("channel", None):
        return payer, ride, 0
    return payer, ride, comm.wire_count if payer == "receiver" else 1


@dataclass
class Outcome:
    """What one schedule run produced: final state + wire accounting."""

    state: State
    wire: int = 0
    degraded: bool = False
    #: the degrade was schedule-level: the run stopped where the stream
    #: failed and ``state`` is partial (a per-op degrade finishes the run)
    aborted: bool = False


class ScheduleExecutor:
    """Runs a :class:`Schedule` against a codec — the one round loop.

    ``rank=None`` plays every rank on ``cluster`` (the simulator).  Given a
    ``rank`` it plays that rank alone: its own comms and local ops, with
    ``wire.send(comm, items, sent)`` / ``wire.receive(comm, outcome)``
    moving the payloads whose other end lives in another process (see
    :mod:`repro.schedule.mp_executor`).
    """

    def __init__(
        self,
        cluster: SimCluster,
        codec: PayloadCodec,
        rank: int | None = None,
        wire: Any = None,
    ) -> None:
        self.cluster = cluster
        self.codec = codec
        self.rank = rank
        self.wire = wire

    # ------------------------------------------------------------------ #
    def run(self, schedule: Schedule, state: State) -> Outcome:
        outcome = Outcome(state=state)
        pending: dict[tuple[int, Hashable], Any] = {}
        try:
            for phase in schedule.phases:
                name = self.codec.discipline.phase_name(phase.slot)
                if name is None:
                    continue  # this discipline has nothing to do here
                # "" runs the phase without opening a span
                with self.cluster.phase(name) if name else nullcontext():
                    for rnd in phase.rounds:
                        self._round(rnd, state, pending, outcome)
        except UnrecoverableStreamError:
            # the single degrade path: abort the schedule, record the
            # degradation; the interpreter reruns on the row's plain fallback
            self.cluster.channel.degrade()
            outcome.degraded = outcome.aborted = True
        # what the codec still holds uncoded (say, the owned block of a
        # fused hand-off) leaves the run in wire-ready form
        for rank in range(len(state)) if self.rank is None else (self.rank,):
            self.codec.seal(rank, state)
        return outcome

    # ------------------------------------------------------------------ #
    def _round(self, rnd: Round, state, pending, outcome: Outcome) -> None:
        cluster = self.cluster
        codec = self.codec
        # the round's declared congestion context: how many flows contend
        # for the fabric (None = all ranks) and how fast its links are
        flows = rnd.concurrency if rnd.concurrency > 0 else None
        scale = rnd.link_scale
        # pack pass: snapshot every outgoing payload before any delivery
        # can mutate state; those bound for another process ship now, in
        # comm order, so per-link fault indices follow the schedule
        packed: list[tuple[tuple[Any, ...], int] | None] = []
        max_sent = 0
        me, everyone = self.rank, self.rank is None
        for comm in rnd.comms:
            entry = None
            if everyone or comm.src == me:
                items = codec.pack(comm.src, comm.blocks, state)
                sent = sum(int(item.nbytes) for item in items)
                max_sent = max(max_sent, sent)
                entry = items, sent
                if not everyone and comm.dst != me:
                    self.wire.send(comm, items, sent)
            packed.append(entry)
        # delivery pass, in comm order (receiver-ascending in the
        # generators), folding or storing as each payload arrives
        for comm, entry in zip(rnd.comms, packed):
            if not everyone and comm.dst != me:
                continue
            try:
                if entry is None:  # packed in another process
                    received = self.wire.receive(comm, outcome)
                else:
                    received = self._deliver(comm, *entry, outcome,
                                             flows, scale)
            except UnrecoverableStreamError:
                if comm.degrade != "op":
                    raise
                cluster.channel.degrade()
                outcome.degraded = True
                outcome.wire += codec.degrade_receive(comm, state)
                if comm.action == "stage":
                    # mark the staged blocks consumed-by-degrade so the
                    # later fold LocalOp skips them cleanly (a truly
                    # missing key still raises — that is a schedule bug)
                    for b in comm.blocks:
                        pending[(comm.dst, b)] = _DEGRADED
                continue
            if comm.action == "fold":
                codec.fold(comm.dst, comm.blocks, received, state)
            elif comm.action == "store":
                codec.store(comm.dst, comm.blocks, received, state)
            elif comm.action == "stage":
                for b, item in zip(comm.blocks, received):
                    pending[(comm.dst, b)] = item
            # "account": wire/clock accounting only
        self._locals([op for op in rnd.ops if everyone or op.rank == me],
                     state, pending)
        if rnd.kind == "compute":
            cluster.end_compute_phase()
        else:
            cluster.end_round(max_sent, n_flows=flows, link_scale=scale)

    # ------------------------------------------------------------------ #
    def _deliver(
        self,
        comm: CommOp,
        items: tuple[Any, ...],
        sent: int,
        outcome: Outcome,
        flows: int | None,
        scale: float,
    ):
        """Move one comm's payload inside this process, charging per its
        :data:`TRANSPORT` row."""
        cluster = self.cluster
        channel = cluster.channel
        payer, ride, copies = carriage(comm, self.codec.discipline.compressed_wire)
        src, dst = comm.src, comm.dst
        if payer == "link":
            channel.charge_link(src, dst, sent, flows, scale)
        elif payer == "sender" or payer == "receiver":
            cluster.charge_comm(dst if payer == "receiver" else src, sent,
                                n_flows=flows, link_scale=scale)
        outcome.wire += copies * sent
        if ride == "raw":
            return items
        if ride == "plain":
            delivery = channel.deliver_plain(src, dst, items, sent,
                                             flows, scale)
            outcome.wire += delivery.nbytes
            return delivery.payload
        received = []
        for item in items:
            delivery = channel.deliver_compressed(
                src, dst, item, payer == "channel", flows, scale
            )
            outcome.wire += delivery.nbytes
            received.append(delivery.payload)
        return tuple(received)

    # ------------------------------------------------------------------ #
    def _locals(self, ops, state, pending) -> None:
        """Run a round's local ops.

        Adjacent ``prepare`` ops of one rank reach the codec as a single
        call over all their blocks, so a codec that encodes a call's blocks
        in one kernel sweep pays its fixed cost once per rank per setup
        however finely the generator itemised the blocks.  Execution
        policy only: the ``Schedule`` (and so ``schedule_cost``) still
        holds one op per block.
        """
        runs = groupby(ops, key=lambda op: (op.rank, op.kind == "prepare"))
        for (owner, prepare), run in runs:
            if prepare:
                blocks = tuple(b for op in run for b in op.blocks)
                self.codec.prepare(owner, blocks, state)
            else:
                for op in run:
                    self._local(op, state, pending)

    def _local(self, op: LocalOp, state, pending) -> None:
        codec = self.codec
        if op.kind == "fold":
            blocks, items = [], []
            for b in op.blocks:
                item = pending.pop((op.rank, b))
                if item is _DEGRADED:
                    continue  # handled by the per-op degrade path
                blocks.append(b)
                items.append(item)
            if blocks:
                codec.fold(op.rank, tuple(blocks), items, state)
        elif op.kind == "fold_fused":
            codec.fold_fused(op.rank, op.blocks, state, fanin=op.fanin,
                             out=op.out)
        elif op.kind == "finalize":
            codec.finalize(op.rank, op.blocks, state)
        elif op.kind == "finalize_local":
            codec.finalize_local(op.rank, op.blocks, state)
        else:  # pragma: no cover - validate() rejects unknown kinds
            raise ValueError(f"unhandled local op kind {op.kind!r}")
