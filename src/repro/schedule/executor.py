"""The unified schedule executor: one engine for every collective family.

Everything the five legacy collectives hand-rolled in lock-step lives
here exactly once: channel delivery (plain or validated-compressed),
per-round ``max_msg``/``end_round`` accounting, ``cluster.timed`` compute
charging (delegated to the codec), span recording via ``cluster.phase``,
and the ``UnrecoverableStreamError`` → ``channel.degrade()`` single
degrade path (per-op degradation for ``degrade="op"`` comms).

Round accounting uses the *sent* payload size — the size the sender
scheduled, which the receivers' clocks synchronise on — never the
delivered size, which can transiently diverge under truncate/corrupt
faults.  Fault handling costs (retransmits, waits) are charged by the
channel inside the round and never change the round's wire term.

Execution order within a round replays the legacy loops exactly: first a
pack pass snapshots every sender's outgoing payload, then deliveries run
in comm order (receiver-ascending in the generators), folding or storing
as each arrives — so per-link fault indices, and therefore injected fault
sequences, are unchanged by the refactor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Hashable

from ..runtime.cluster import SimCluster
from ..runtime.faults import UnrecoverableStreamError
from .codecs import PayloadCodec, State
from .ir import CommOp, LocalOp, Round, Schedule

__all__ = ["Outcome", "ScheduleExecutor"]

#: pending-table sentinel: this staged block was lost to a per-op degrade
#: (``degrade_receive`` already patched state), so the later fold skips it
#: instead of dying on a missing key.
_DEGRADED = object()


@dataclass
class Outcome:
    """What one schedule run produced: final state + wire accounting."""

    state: State
    wire: int = 0
    degraded: bool = False


class ScheduleExecutor:
    """Runs a :class:`Schedule` against a codec on a simulated cluster."""

    def __init__(self, cluster: SimCluster, codec: PayloadCodec) -> None:
        self.cluster = cluster
        self.codec = codec

    # ------------------------------------------------------------------ #
    def run(self, schedule: Schedule, state: State) -> Outcome:
        outcome = Outcome(state=state)
        pending: dict[tuple[int, Hashable], Any] = {}
        try:
            for phase in schedule.phases:
                name = self.codec.phase_name(phase.slot)
                if name is None:
                    continue  # this discipline has nothing to do here
                if name == "":
                    for rnd in phase.rounds:
                        self._round(rnd, state, pending, outcome)
                else:
                    with self.cluster.phase(name):
                        for rnd in phase.rounds:
                            self._round(rnd, state, pending, outcome)
        except UnrecoverableStreamError:
            # the single degrade path: abort the schedule, record the
            # degradation; the entry point reruns on its plain fallback
            self.cluster.channel.degrade()
            outcome.degraded = True
        return outcome

    # ------------------------------------------------------------------ #
    def _round(self, rnd: Round, state, pending, outcome: Outcome) -> None:
        cluster = self.cluster
        codec = self.codec
        # the round's declared congestion context: how many flows contend
        # for the fabric (None = all ranks) and how fast its links are
        flows = rnd.concurrency if rnd.concurrency > 0 else None
        scale = rnd.link_scale
        # pack pass: snapshot every sender's payload before any delivery
        payloads = [
            codec.pack(comm.src, comm.blocks, state) for comm in rnd.comms
        ]
        max_sent = 0
        for comm, items in zip(rnd.comms, payloads):
            sent = sum(int(item.nbytes) for item in items)
            max_sent = max(max_sent, sent)
            try:
                received = self._deliver(comm, items, sent, outcome,
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
                codec.fold(comm.dst, comm.blocks, received, state,
                           fresh=comm.fresh)
            elif comm.action == "store":
                codec.store(comm.dst, comm.blocks, received, state)
            elif comm.action == "stage":
                for b, item in zip(comm.blocks, received):
                    pending[(comm.dst, b)] = item
            # "account": wire/clock accounting only
        self._locals(rnd.ops, state, pending)
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
        """Move one comm's payload, charging per its declared transport."""
        cluster = self.cluster
        channel = cluster.channel
        compressed = self.codec.compressed_wire
        transport = comm.transport

        if transport in ("link", "bundle"):
            if not compressed:
                delivery = channel.deliver_plain(
                    comm.src, comm.dst, items, sent,
                    n_flows=flows, link_scale=scale,
                )
                outcome.wire += delivery.nbytes
                return delivery.payload
            if transport == "link":
                delivery = channel.deliver_compressed(
                    comm.src, comm.dst, items[0],
                    n_flows=flows, link_scale=scale,
                )
                outcome.wire += delivery.nbytes
                return (delivery.payload,)
            # bundle: one aggregate scheduled transfer, then each
            # compressed item validated individually
            channel.charge_link(comm.src, comm.dst, sent,
                                n_flows=flows, link_scale=scale)
            outcome.wire += sent
            received = []
            for item in items:
                delivery = channel.deliver_compressed(
                    comm.src, comm.dst, item, charge_base=False,
                    n_flows=flows, link_scale=scale,
                )
                outcome.wire += delivery.nbytes
                received.append(delivery.payload)
            return tuple(received)

        if transport == "sender":
            # concurrent direct send charged to the sender's clock
            cluster.charge_comm(comm.src, sent, n_flows=flows,
                                link_scale=scale)
            outcome.wire += sent
            if compressed:
                received = []
                for item in items:
                    delivery = channel.deliver_compressed(
                        comm.src, comm.dst, item, charge_base=False,
                        n_flows=flows, link_scale=scale,
                    )
                    outcome.wire += delivery.nbytes
                    received.append(delivery.payload)
                return tuple(received)
            return items

        if transport == "flow":
            # representative-flow accounting (binomial dissemination):
            # wire_count concurrent copies, one representative charge
            cluster.charge_comm(comm.dst, sent, n_flows=flows,
                                link_scale=scale)
            outcome.wire += comm.wire_count * sent
            return items

        # "faults-only": the scheduled transfer was charged elsewhere
        if compressed:
            received = []
            for item in items:
                delivery = channel.deliver_compressed(
                    comm.src, comm.dst, item, charge_base=False,
                    n_flows=flows, link_scale=scale,
                )
                outcome.wire += delivery.nbytes
                received.append(delivery.payload)
            return tuple(received)
        return items

    # ------------------------------------------------------------------ #
    def _locals(self, ops, state, pending, rank: int | None = None) -> None:
        """Run a round's local ops (only ``rank``'s when given).

        Adjacent ``prepare`` ops of one rank reach the codec as a single
        call over all their blocks, so a codec that encodes a call's blocks
        in one kernel sweep pays its fixed cost once per rank per setup
        however finely the generator itemised the blocks.  Execution
        policy only: the ``Schedule`` (and so ``schedule_cost``) still
        holds one op per block.
        """
        if rank is not None:
            ops = [op for op in ops if op.rank == rank]
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
                codec.fold(op.rank, tuple(blocks), items, state,
                           fresh=op.fresh)
        elif op.kind == "fold_fused":
            codec.fold_fused(op.rank, op.blocks, state, fanin=op.fanin,
                             out=op.out)
        elif op.kind == "finalize":
            codec.finalize(op.rank, op.blocks, state)
        elif op.kind == "finalize_local":
            codec.finalize_local(op.rank, op.blocks, state)
        else:  # pragma: no cover - validate() rejects unknown kinds
            raise ValueError(f"unhandled local op kind {op.kind!r}")
