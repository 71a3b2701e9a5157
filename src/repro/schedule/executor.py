"""The schedule executor: the one round loop every collective runs on.

Everything the five legacy collectives hand-rolled in lock-step lives
here exactly once: channel delivery (every comm is one message, billed
once — see :meth:`ScheduleExecutor._deliver`), per-round
``max_msg``/``end_round`` accounting, ``cluster.timed`` compute
charging (delegated to the codec), span recording via
``cluster.phase``, and the ``UnrecoverableStreamError``
→ ``channel.degrade()`` single degrade path (the schedule stops; the
interpreter finishes on the row's plain fallback).  Both planes run it:
the simulator plays every rank in one process; a multi-process worker
plays its own rank and hands the comms whose other end is elsewhere to a
wire (see :class:`ScheduleExecutor`).

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

__all__ = ["Outcome", "ScheduleExecutor"]


@dataclass
class Outcome:
    """What one schedule run produced: final state + wire accounting.

    ``degraded`` means an unrecoverable stream stopped the run where it
    failed: ``state`` is partial and the caller finishes on a plain
    fallback."""

    state: State
    wire: int = 0
    degraded: bool = False


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
            outcome.degraded = True
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
            if entry is None:  # packed in another process
                received = self.wire.receive(comm, outcome)
            else:
                received = self._deliver(comm, *entry, outcome, flows, scale)
            if comm.action == "fold":
                codec.fold(comm.dst, comm.blocks, received, state)
            elif comm.action == "store":
                codec.store(comm.dst, comm.blocks, received, state)
            else:  # "stage"
                for b, item in zip(comm.blocks, received):
                    pending[(comm.dst, b)] = item
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
        """Move one comm's payload inside this process.

        The scheduled transfer is billed once on its link; the channel
        then walks the payload — a plain comm as one message, a
        compressed one item by item, each stream validated on its own —
        billing only the fault handling."""
        channel = self.cluster.channel
        src, dst = comm.src, comm.dst
        channel.charge_link(src, dst, sent, flows, scale)
        outcome.wire += sent
        if not self.codec.discipline.compressed_wire:
            delivery = channel.deliver(src, dst, items, sent, False,
                                       flows, scale)
            outcome.wire += delivery.nbytes
            return delivery.payload
        received = []
        for item in items:
            delivery = channel.deliver(src, dst, item, int(item.nbytes),
                                       True, flows, scale)
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
            items = [pending.pop((op.rank, b)) for b in op.blocks]
            codec.fold(op.rank, op.blocks, items, state)
        elif op.kind == "fold_fused":
            codec.fold_fused(op.rank, op.blocks, state, fanin=op.fanin,
                             out=op.out)
        elif op.kind == "finalize":
            codec.finalize(op.rank, op.blocks, state)
        elif op.kind == "finalize_local":
            codec.finalize_local(op.rank, op.blocks, state)
        else:  # pragma: no cover - validate() rejects unknown kinds
            raise ValueError(f"unhandled local op kind {op.kind!r}")
