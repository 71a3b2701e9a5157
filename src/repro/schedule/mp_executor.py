"""Multi-process execution of the Schedule IR (the real data plane).

:class:`MPExecutor` runs the **same frozen** :class:`~repro.schedule.ir.
Schedule` objects as :class:`~repro.schedule.executor.ScheduleExecutor`,
but for real: one OS process per rank (see
:mod:`repro.runtime.mp_cluster`), payload bytes moving over shared-memory
rings or sockets (see :mod:`repro.runtime.mp_channel`), and wall-clock
receive deadlines derived from the same :class:`~repro.runtime.faults.
RetryPolicy` the simulator models.  The correctness contract is
**bit-identical** ``state`` and **identical** ``wire`` versus the
simulator for every schedule × codec pair, faults included.

How the fault semantics carry over
----------------------------------
The simulator's :class:`~repro.runtime.faults.ResilientChannel` consumes
one deterministic per-link fault index per transmission attempt.  Here
the *sender* owns that sequence: for every managed transfer it walks the
same ``plan.decide(src, dst, index)`` attempts the simulator would, and
emits one frame per non-dropped attempt — flagged ``DAMAGED`` when the
plan corrupts/truncates it (compressed payloads are damaged **for real**
with ``plan.corrupt_stream`` and rejected by the wire format's checksum
at the receiver), flagged ``DUPLICATE`` for the extra wire copy, kind
``FORCED`` for the plain path's reliable-floor escalation, and kind
``FAIL`` when a compressed stream exhausts ``max_attempts`` (the
receiver raises :class:`UnrecoverableStreamError`, same degrade contract
as the simulator).  The receiver accounts ``frame.nbytes`` — the
*scheduled* logical size carried in the header — under exactly the
simulator's charging rules, which is what makes ``bytes_on_wire`` match
to the byte.

Self-deliveries (``src == dst`` comms, e.g. the broadcast tree's
representative flows) and every ``LocalOp`` are executed by delegating
to a rank-local :class:`ScheduleExecutor` over a rank-local
:class:`SimCluster` — zero drift by construction, and the local cluster
doubles as the codec's compute-charge sink, so each rank reports real
measured kernel seconds for the calibration loop.

Deadlock freedom: each worker runs one background sender thread **per
destination** (so a slow receiver can never block frames bound for a
different rank) and receivers drain their incoming comms in schedule
order; since every frame queued in a round is consumed in that same
round, the only waits are true data dependencies.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Hashable

import numpy as np

from ..compression.format import from_bytes
from ..runtime.cluster import SimCluster
from ..runtime.faults import FaultPlan, RetryPolicy, UnrecoverableStreamError
from ..runtime.mp_channel import (
    FLAG_COMPRESSED,
    FLAG_DAMAGED,
    FLAG_DUPLICATE,
    FRAME_DATA,
    FRAME_FAIL,
    FRAME_FORCED,
    FRAME_RAW,
    Frame,
    MPAbortedError,
    dump_items,
    load_items,
    recv_frame,
    send_frame,
)
from ..runtime.mp_cluster import MPCluster, RankResult
from .codecs import (
    CompressedBcastCodec,
    DocGatherCodec,
    DocReduceCodec,
    HomomorphicCodec,
    PlainCodec,
)
from .executor import _DEGRADED, Outcome, ScheduleExecutor
from .ir import Round, Schedule

__all__ = ["CodecSpec", "MPExecutor", "RankJob", "execute_rank"]


# --------------------------------------------------------------------- #
# picklable codec description
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CodecSpec:
    """Worker-side recipe for a codec.

    Codecs hold clusters, engines and numpy state, so the parent ships
    this small picklable description instead and every worker builds its
    own instance.  Kernel determinism guarantees all ranks produce
    byte-identical streams regardless of who runs the encode.
    """

    kind: str  # plain | doc-reduce | doc-gather | homomorphic | compressed-bcast
    error_bound: float = 1e-3
    block_size: int = 32
    n_threadblocks: int = 8
    #: slot → span-name overrides (``None`` skips the phase), as items so
    #: the spec stays hashable; ``None`` keeps the codec's defaults.
    slots: tuple[tuple[str, str | None], ...] | None = None
    #: full payload for the compressed broadcast's per-rank plain fallback
    bcast_data: Any = None

    _KINDS = (
        "plain",
        "doc-reduce",
        "doc-gather",
        "homomorphic",
        "compressed-bcast",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown codec kind {self.kind!r}; one of {self._KINDS}"
            )
        if self.kind == "compressed-bcast" and self.bcast_data is None:
            raise ValueError("compressed-bcast needs bcast_data")

    def build(self, cluster: SimCluster):
        """Construct the codec bound to ``cluster`` as its charge sink."""
        config = SimpleNamespace(
            block_size=self.block_size,
            n_threadblocks=self.n_threadblocks,
            error_bound=self.error_bound,
        )
        if self.kind == "plain":
            codec = PlainCodec(cluster)
        elif self.kind == "doc-reduce":
            codec = DocReduceCodec(cluster, config)
        elif self.kind == "doc-gather":
            codec = DocGatherCodec(cluster, config)
        elif self.kind == "homomorphic":
            codec = HomomorphicCodec(cluster, config)
        else:
            codec = CompressedBcastCodec(
                cluster, config, np.asarray(self.bcast_data, dtype=np.float32)
            )
        if self.slots is not None:
            codec.slots = dict(self.slots)
        return codec


@dataclass(frozen=True)
class RankJob:
    """Everything one worker needs to run its slice of a schedule."""

    schedule: Schedule
    spec: CodecSpec
    state: dict
    plan: FaultPlan | None
    retry: RetryPolicy
    time_scale: float
    recv_deadline_s: float


# --------------------------------------------------------------------- #
# per-destination sender threads
# --------------------------------------------------------------------- #
class _SenderPool:
    """One background writer thread per destination rank.

    The main thread enqueues prebuilt frame bytes (and optional pacing
    sleeps); each thread drains its queue into that destination's
    channel.  Per-destination threads mean a full ring toward one slow
    receiver can never delay frames bound for another rank — the
    property that makes arbitrary schedules deadlock-free.
    """

    def __init__(self, channels: dict[int, Any], deadline_s: float) -> None:
        self._deadline_s = deadline_s
        self._abort = threading.Event()
        self._failures: dict[int, str] = {}
        self._queues: dict[int, queue.Queue] = {}
        self._threads: dict[int, threading.Thread] = {}
        for dst, channel in channels.items():
            q: queue.Queue = queue.Queue()
            t = threading.Thread(
                target=self._drain,
                args=(dst, channel, q),
                name=f"repro-mp-send-{dst}",
                daemon=True,
            )
            self._queues[dst] = q
            self._threads[dst] = t
            t.start()

    def _poll(self) -> None:
        if self._abort.is_set():
            raise MPAbortedError("sender pool aborted")

    def _drain(self, dst: int, channel, q: queue.Queue) -> None:
        try:
            while True:
                item = q.get()
                if item is None:
                    return
                kind, value = item
                if kind == "sleep":
                    # paced in small slices so aborts stay responsive
                    end = time.monotonic() + value
                    while time.monotonic() < end:
                        self._poll()
                        time.sleep(min(0.01, max(0.0, end - time.monotonic())))
                else:
                    channel.send_bytes(
                        value, time.monotonic() + self._deadline_s, self._poll
                    )
        except MPAbortedError:
            pass
        except Exception as exc:  # surfaced by flush()
            self._failures[dst] = f"{type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------ #
    def put_frame(self, dst: int, frame: Frame) -> None:
        buf = bytearray()
        send_frame(_Collector(buf), frame, deadline=0.0)
        self._queues[dst].put(("send", bytes(buf)))

    def put_sleep(self, dst: int, seconds: float) -> None:
        if seconds > 0.0:
            self._queues[dst].put(("sleep", seconds))

    def flush(self) -> None:
        """Block until every queued frame is on the wire; raise on failure."""
        for q in self._queues.values():
            q.put(None)
        for t in self._threads.values():
            t.join()
        if self._failures:
            detail = "; ".join(
                f"→{dst}: {msg}" for dst, msg in sorted(self._failures.items())
            )
            raise RuntimeError(f"sender threads failed: {detail}")

    def abort(self) -> None:
        self._abort.set()
        for q in self._queues.values():
            q.put(None)
        for t in self._threads.values():
            t.join(timeout=2.0)


class _Collector:
    """Minimal channel adapter collecting frame bytes into a buffer."""

    def __init__(self, buf: bytearray) -> None:
        self._buf = buf

    def send_bytes(self, data: bytes, deadline, poll=None) -> None:
        self._buf += data


# --------------------------------------------------------------------- #
# worker-side rank interpreter
# --------------------------------------------------------------------- #
class _RankRuntime:
    """Executes one rank's share of a schedule over real channels."""

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        send_channels: dict[int, Any],
        recv_channels: dict[int, Any],
        job: RankJob,
        poll_control,
    ) -> None:
        self.rank = rank
        self.n_ranks = n_ranks
        self.recv_channels = recv_channels
        self.job = job
        self.poll_control = poll_control
        self.pool = _SenderPool(send_channels, job.recv_deadline_s)
        # rank-local simulator: compute-charge sink for the codec, exact
        # self-delivery semantics, and the per-link fault index table
        self.sim = SimCluster(n_ranks, faults=job.plan, retry=job.retry)
        self.codec = job.spec.build(self.sim)
        self.shadow = ScheduleExecutor(self.sim, self.codec)
        self.outcome: Outcome | None = None
        self.pending: dict[tuple[int, Hashable], Any] = {}
        self.stats = {
            "frames_sent": 0,
            "frames_received": 0,
            "retransmits": 0,
            "forced_deliveries": 0,
            "failed_streams": 0,
            "damaged_rejected": 0,
            "duplicates_discarded": 0,
        }

    # ------------------------------------------------------------------ #
    def execute(self) -> RankResult:
        job = self.job
        me = self.rank
        # sparse rank-indexed state: this worker only ever touches its own
        # slice (codec verbs are all rank-local); None elsewhere keeps any
        # accidental cross-rank access loudly fatal
        state: list = [None] * self.n_ranks
        state[me] = job.state
        self.outcome = outcome = Outcome(state=state)
        start = time.perf_counter()
        aborted_schedule = False
        try:
            try:
                for phase in job.schedule.phases:
                    if self.codec.phase_name(phase.slot) is None:
                        continue
                    for rnd in phase.rounds:
                        self._round(rnd, state)
            except UnrecoverableStreamError:
                # degrade="schedule": the whole run is abandoned, exactly
                # like the simulator's top-level catch
                self.sim.channel.degrade()
                outcome.degraded = True
                aborted_schedule = True
            if not aborted_schedule:
                self.pool.flush()
        except BaseException:
            self.pool.abort()
            raise
        else:
            if aborted_schedule:
                self.pool.abort()
        seconds = time.perf_counter() - start
        clock = self.sim.clocks[me]
        compute_s = sum(
            clock.buckets.get(b, 0.0) for b in SimCluster._COMPUTE_BUCKETS
        )
        return RankResult(
            rank=me,
            state=state[me],
            wire=outcome.wire,
            degraded=outcome.degraded,
            schedule_aborted=aborted_schedule,
            seconds=seconds,
            compute_seconds=compute_s,
            stats=self.stats,
        )

    # ------------------------------------------------------------------ #
    def _round(self, rnd: Round, state) -> None:
        me = self.rank
        outcome = self.outcome
        flows = rnd.concurrency if rnd.concurrency > 0 else None
        scale = rnd.link_scale
        # pack pass: snapshot every outgoing payload before any delivery
        # can mutate state (the simulator's pack pass), then ship the
        # cross-rank ones — in comm order, so per-link fault indices
        # follow schedule order exactly like the simulator's delivery loop
        packed: dict[int, tuple[tuple, int]] = {}
        for i, comm in enumerate(rnd.comms):
            if comm.src != me:
                continue
            items = self.codec.pack(me, comm.blocks, state)
            sent = sum(int(item.nbytes) for item in items)
            packed[i] = (items, sent)
            if comm.dst != me:
                self._send_comm(comm, items, sent)
        # delivery pass: everything arriving at this rank (remote receives
        # and self-deliveries alike) applies in comm order — the order the
        # simulator folds/stores in
        for i, comm in enumerate(rnd.comms):
            if comm.dst != me:
                continue
            if comm.src == me:
                items, sent = packed[i]
                self._self_deliver(comm, items, sent, flows, scale, state)
                continue
            try:
                received = self._receive_comm(comm)
            except UnrecoverableStreamError:
                if comm.degrade != "op":
                    raise
                self.sim.channel.degrade()
                outcome.degraded = True
                outcome.wire += self.codec.degrade_receive(comm, state)
                if comm.action == "stage":
                    for b in comm.blocks:
                        self.pending[(me, b)] = _DEGRADED
                continue
            self._apply(comm, received, state)
        self.shadow._locals(rnd.ops, state, self.pending, rank=me)

    def _apply(self, comm, received, state) -> None:
        if comm.action == "fold":
            self.codec.fold(
                comm.dst, comm.blocks, received, state, fresh=comm.fresh
            )
        elif comm.action == "store":
            self.codec.store(comm.dst, comm.blocks, received, state)
        elif comm.action == "stage":
            for b, item in zip(comm.blocks, received):
                self.pending[(comm.dst, b)] = item
        # "account": wire accounting only

    def _self_deliver(self, comm, items, sent, flows, scale, state) -> None:
        """A src == dst comm never touches a channel: replay the simulator
        verbatim through the rank-local executor (flows, faults and all)."""
        outcome = self.outcome
        try:
            received = self.shadow._deliver(
                comm, items, sent, outcome, flows, scale
            )
        except UnrecoverableStreamError:
            if comm.degrade != "op":
                raise
            self.sim.channel.degrade()
            outcome.degraded = True
            outcome.wire += self.codec.degrade_receive(comm, state)
            if comm.action == "stage":
                for b in comm.blocks:
                    self.pending[(comm.dst, b)] = _DEGRADED
            return
        self._apply(comm, received, state)

    # ------------------------------------------------------------------ #
    # sender side
    # ------------------------------------------------------------------ #
    def _emit(self, dst: int, frame: Frame) -> None:
        self.pool.put_frame(dst, frame)
        self.stats["frames_sent"] += 1

    def _pace(self, dst: int, seconds: float) -> None:
        if self.job.time_scale > 0.0:
            self.pool.put_sleep(dst, self.job.time_scale * seconds)

    def _next_index(self, dst: int) -> int:
        # one coherent per-link table with the self-delivery path
        return self.sim.channel._next_index(self.rank, dst)

    def _send_comm(self, comm, items, sent: int) -> None:
        compressed = self.codec.compressed_wire
        transport = comm.transport
        dst = comm.dst
        if transport in ("link", "bundle"):
            if not compressed:
                self._send_plain(dst, items, sent)
            elif transport == "link":
                self._send_compressed(dst, items[0])
            else:
                # aggregate manifest first (the simulator charges the
                # scheduled transfer before the per-item validations)
                self._emit(dst, Frame(FRAME_RAW, nbytes=sent))
                for item in items:
                    self._send_compressed(dst, item)
            return
        if transport == "sender":
            if compressed:
                self._emit(dst, Frame(FRAME_RAW, nbytes=sent))
                for item in items:
                    self._send_compressed(dst, item)
            else:
                self._emit(
                    dst, Frame(FRAME_RAW, nbytes=sent, payload=dump_items(items))
                )
            return
        if transport == "flow":
            # non-self flow (no generator emits one today): raw transfer,
            # receiver applies the representative-flow multiplier
            self._emit(
                dst, Frame(FRAME_RAW, nbytes=sent, payload=dump_items(items))
            )
            return
        # "faults-only": the scheduled transfer is charged elsewhere
        if compressed:
            for item in items:
                self._send_compressed(dst, item)
        else:
            self._emit(
                dst, Frame(FRAME_RAW, nbytes=sent, payload=dump_items(items))
            )

    def _send_plain(self, dst: int, items, sent: int) -> None:
        """Reliable plain transfer: mirrors ``ResilientChannel.deliver_plain``
        attempt for attempt (same per-link fault indices, same charges)."""
        plan = self.job.plan
        blob = dump_items(items)
        if plan is None:
            self._emit(dst, Frame(FRAME_DATA, nbytes=sent, payload=blob))
            return
        policy = self.job.retry
        me = self.rank
        for attempt in range(policy.max_attempts):
            decision = plan.decide(me, dst, self._next_index(dst))
            if decision.drop:
                self._pace(dst, policy.timeout_s + policy.delay(attempt))
                continue
            if decision.corrupt or decision.truncate:
                # the transport checksum rejects it; payload intact so the
                # receiver only needs the flag (the plain path is lossless)
                self._emit(
                    dst,
                    Frame(
                        FRAME_DATA,
                        flags=FLAG_DAMAGED,
                        attempt=attempt,
                        nbytes=sent,
                        payload=blob,
                    ),
                )
                self._pace(dst, policy.delay(attempt))
                continue
            if decision.duplicate:
                # wire copy first, deliverable copy second: the receiver
                # counts the duplicate and keeps exactly one payload
                self._emit(
                    dst,
                    Frame(
                        FRAME_DATA,
                        flags=FLAG_DUPLICATE,
                        attempt=attempt,
                        nbytes=sent,
                        payload=blob,
                    ),
                )
            if attempt > 0:
                self.stats["retransmits"] += 1
            self._emit(
                dst,
                Frame(FRAME_DATA, attempt=attempt, nbytes=sent, payload=blob),
            )
            return
        # reliable floor: the transport escalates and delivers anyway
        self.stats["forced_deliveries"] += 1
        self._pace(dst, policy.timeout_s)
        self._emit(
            dst,
            Frame(
                FRAME_FORCED,
                attempt=policy.max_attempts,
                nbytes=sent,
                payload=blob,
            ),
        )

    def _send_compressed(self, dst: int, stream) -> None:
        """Validated compressed transfer: mirrors ``deliver_compressed``.

        Injected corruption damages the serialised bytes **for real**; the
        receiver's checksum validation does the rejecting.  After
        ``max_attempts`` a ``FAIL`` frame tells the receiver to raise
        :class:`UnrecoverableStreamError`.
        """
        plan = self.job.plan
        blob = stream.to_bytes()
        nbytes = int(stream.nbytes)
        base = Frame(
            FRAME_DATA, flags=FLAG_COMPRESSED, nbytes=nbytes, payload=blob
        )
        if plan is None:
            self._emit(dst, base)
            return
        policy = self.job.retry
        me = self.rank
        for attempt in range(policy.max_attempts):
            index = self._next_index(dst)
            decision = plan.decide(me, dst, index)
            if decision.drop:
                self._pace(dst, policy.timeout_s + policy.delay(attempt))
                continue
            if decision.corrupt or decision.truncate:
                damaged = plan.corrupt_stream(
                    blob, me, dst, index, truncate=decision.truncate
                )
                if damaged != blob:
                    self._emit(
                        dst,
                        Frame(
                            FRAME_DATA,
                            flags=FLAG_COMPRESSED | FLAG_DAMAGED,
                            attempt=attempt,
                            nbytes=nbytes,
                            payload=damaged,
                        ),
                    )
                    self._pace(dst, policy.delay(attempt))
                    continue
                # degenerate empty-stream case: damage was a no-op and the
                # simulator accepts the bit-identical bytes — deliver
            if decision.duplicate:
                self._emit(
                    dst,
                    Frame(
                        FRAME_DATA,
                        flags=FLAG_COMPRESSED | FLAG_DUPLICATE,
                        attempt=attempt,
                        nbytes=nbytes,
                        payload=blob,
                    ),
                )
            if attempt > 0:
                self.stats["retransmits"] += 1
            self._emit(
                dst,
                Frame(
                    FRAME_DATA,
                    flags=FLAG_COMPRESSED,
                    attempt=attempt,
                    nbytes=nbytes,
                    payload=blob,
                ),
            )
            return
        self.stats["failed_streams"] += 1
        self._emit(dst, Frame(FRAME_FAIL, attempt=policy.max_attempts))

    # ------------------------------------------------------------------ #
    # receiver side
    # ------------------------------------------------------------------ #
    def _recv_frame(self, src: int) -> Frame:
        frame = recv_frame(
            self.recv_channels[src],
            time.monotonic() + self.job.recv_deadline_s,
            self.poll_control,
        )
        self.stats["frames_received"] += 1
        return frame

    def _receive_comm(self, comm):
        """Receive one comm's payload, accounting wire bytes exactly as the
        simulator's :meth:`ScheduleExecutor._deliver` would."""
        outcome = self.outcome
        compressed = self.codec.compressed_wire
        transport = comm.transport
        if transport in ("link", "bundle"):
            if not compressed:
                items, charged = self._recv_plain(comm)
                outcome.wire += charged
                return items
            if transport == "link":
                stream, charged = self._recv_compressed(comm, charge_base=True)
                outcome.wire += charged
                return (stream,)
            manifest = self._recv_frame(comm.src)
            self._expect_raw(manifest, comm)
            outcome.wire += manifest.nbytes
            received = []
            for _ in comm.blocks:
                stream, charged = self._recv_compressed(
                    comm, charge_base=False
                )
                outcome.wire += charged
                received.append(stream)
            return tuple(received)
        if transport == "sender":
            if compressed:
                manifest = self._recv_frame(comm.src)
                self._expect_raw(manifest, comm)
                outcome.wire += manifest.nbytes
                received = []
                for _ in comm.blocks:
                    stream, charged = self._recv_compressed(
                        comm, charge_base=False
                    )
                    outcome.wire += charged
                    received.append(stream)
                return tuple(received)
            frame = self._recv_frame(comm.src)
            self._expect_raw(frame, comm)
            outcome.wire += frame.nbytes
            return load_items(frame.payload)
        if transport == "flow":
            frame = self._recv_frame(comm.src)
            self._expect_raw(frame, comm)
            outcome.wire += comm.wire_count * frame.nbytes
            return load_items(frame.payload)
        # "faults-only"
        if compressed:
            received = []
            for _ in comm.blocks:
                stream, charged = self._recv_compressed(comm, charge_base=False)
                outcome.wire += charged
                received.append(stream)
            return tuple(received)
        frame = self._recv_frame(comm.src)
        self._expect_raw(frame, comm)
        return load_items(frame.payload)

    @staticmethod
    def _expect_raw(frame: Frame, comm) -> None:
        if frame.kind != FRAME_RAW:
            raise RuntimeError(
                f"channel desync on {comm.src}→{comm.dst}: expected a raw "
                f"transfer, got frame kind {frame.kind}"
            )

    def _recv_plain(self, comm) -> tuple[tuple, int]:
        """Counterpart of :meth:`_send_plain`: every frame of the reliable
        plain path is charged, duplicates and damage included."""
        charged = 0
        while True:
            frame = self._recv_frame(comm.src)
            if frame.kind not in (FRAME_DATA, FRAME_FORCED):
                raise RuntimeError(
                    f"channel desync on {comm.src}→{comm.dst}: unexpected "
                    f"frame kind {frame.kind} on the plain path"
                )
            charged += frame.nbytes
            if frame.flags & FLAG_DUPLICATE:
                self.stats["duplicates_discarded"] += 1
                continue
            if frame.flags & FLAG_DAMAGED:
                self.stats["damaged_rejected"] += 1
                continue
            return load_items(frame.payload), charged

    def _recv_compressed(self, comm, charge_base: bool) -> tuple[Any, int]:
        """Counterpart of :meth:`_send_compressed`: frames are charged under
        the simulator's rule (base charge only when ``charge_base`` or on a
        retransmission; duplicates always), and every payload is validated
        through the wire format's checksummed parser before acceptance."""
        charged = 0
        while True:
            frame = self._recv_frame(comm.src)
            if frame.kind == FRAME_FAIL:
                raise UnrecoverableStreamError(
                    comm.src, comm.dst, self.job.retry.max_attempts
                )
            if frame.kind != FRAME_DATA or not frame.flags & FLAG_COMPRESSED:
                raise RuntimeError(
                    f"channel desync on {comm.src}→{comm.dst}: unexpected "
                    f"frame on the compressed path"
                )
            if frame.flags & FLAG_DUPLICATE or charge_base or frame.attempt > 0:
                charged += frame.nbytes
            if frame.flags & FLAG_DUPLICATE:
                self.stats["duplicates_discarded"] += 1
                continue
            intact = True
            try:
                stream = from_bytes(frame.payload)
            except (ValueError, OverflowError):
                intact = False
            # a parseable-but-flagged frame would mean a checksum collision
            # on damaged bytes; reject it like the simulator (which accepts
            # nothing but bit-identical streams)
            if not intact or frame.flags & FLAG_DAMAGED:
                self.stats["damaged_rejected"] += 1
                continue
            return stream, charged


def execute_rank(
    rank: int,
    n_ranks: int,
    send_channels: dict[int, Any],
    recv_channels: dict[int, Any],
    job: RankJob,
    poll_control,
) -> RankResult:
    """Worker entry point: run one rank's share of one schedule."""
    return _RankRuntime(
        rank, n_ranks, send_channels, recv_channels, job, poll_control
    ).execute()


# --------------------------------------------------------------------- #
# parent-side facade
# --------------------------------------------------------------------- #
class MPExecutor:
    """Drop-in multi-process counterpart of :class:`ScheduleExecutor`.

    ``run`` takes the same ``(schedule, state)`` pair and returns an
    :class:`~repro.runtime.mp_cluster.MPRun` whose ``state`` / ``wire`` /
    ``degraded`` triple matches the simulator bit for bit; the extra
    fields carry the measured wall-clock numbers.
    """

    def __init__(
        self,
        cluster: MPCluster,
        spec: CodecSpec,
        plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.plan = plan
        self.retry = retry

    def run(self, schedule: Schedule, state: list):
        run = self.cluster.run_schedule(
            schedule, self.spec, state, plan=self.plan, retry=self.retry
        )
        # keep the simulator's in-place contract: the caller's state list
        # reflects the run (slices a degraded run aborted stay untouched)
        for rank, result_slice in enumerate(run.state):
            if result_slice is None or state[rank] is result_slice:
                continue
            state[rank].clear()
            state[rank].update(result_slice)
            run.state[rank] = state[rank]
        return run
