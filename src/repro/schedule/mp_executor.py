"""Multi-process execution of the Schedule IR (the real data plane).

:class:`MPExecutor` runs the **same frozen** :class:`~repro.schedule.ir.
Schedule` objects through the **same round loop** as the simulator, but
for real: one OS process per rank (see :mod:`repro.runtime.mp_cluster`),
each running :class:`~repro.schedule.executor.ScheduleExecutor` *as its
rank* over a rank-local :class:`SimCluster`, with a :class:`_RankWire`
moving the payloads whose other end is another process — bytes over
shared-memory rings or sockets (see :mod:`repro.runtime.mp_channel`),
under wall-clock receive deadlines derived from the same
:class:`~repro.runtime.faults.RetryPolicy` the simulator models.  Pack
order, delivery order, fold/store/stage, local ops, self-deliveries
(``src == dst`` comms, e.g. the broadcast tree's representative flows)
and both degrade paths are therefore the simulator's by construction;
the rank-local cluster doubles as the codec's compute-charge sink, so
each rank reports real measured kernel seconds for the calibration loop.

The correctness contract is **bit-identical** ``state``, **identical**
``wire`` and equal fault counters versus the simulator for every
schedule × codec pair, seeded faults and per-op degrades included — on
every run that does not *abort* at schedule level.  When a
``degrade="schedule"`` stream is unrecoverable the ranks stop at
different comms, so an aborted run matches the simulator on ``degraded``
only: its ``wire`` and counters are the sum of wherever each rank
happened to stop, its state is partial, and the cluster is poisoned
(undelivered frames may sit in the channels).

How the fault semantics carry over
----------------------------------
:meth:`ResilientChannel.attempts <repro.runtime.faults.ResilientChannel.
attempts>` is the one attempt walk: one deterministic per-link fault
index and one verdict per transmission.  The simulated channel consumes
it by charging virtual time; here the *sender* consumes it by emitting
one frame per non-dropped attempt — flagged ``DAMAGED`` when the plan
corrupts/truncates it (compressed payloads are damaged **for real** and
rejected by the wire format's checksum at the receiver), flagged
``DUPLICATE`` for the extra wire copy, kind ``FORCED`` for the plain
path's reliable-floor escalation, and kind ``FAIL`` when a compressed
stream exhausts ``max_attempts`` (the receiver raises
:class:`UnrecoverableStreamError`, same degrade contract as the
simulator).  The receiver accounts ``frame.nbytes`` — the *scheduled*
logical size carried in the header — under exactly the simulator's
charging rules, which is what makes ``bytes_on_wire`` match to the byte.

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
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import numpy as np

from ..runtime.cluster import SimCluster
from ..runtime.faults import (
    DAMAGE_VERDICTS,
    FaultPlan,
    ResilientChannel,
    RetryPolicy,
    UnrecoverableStreamError,
    parse_stream,
)
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
    frame_bytes,
    load_items,
    recv_frame,
)
from ..runtime.mp_cluster import MPCluster, RankResult
from .codecs import (
    CompressedBcastCodec,
    DocGatherCodec,
    DocReduceCodec,
    HomomorphicCodec,
    PlainCodec,
)
from .executor import Outcome, ScheduleExecutor, carriage
from .ir import Schedule

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
        self._queues[dst].put(("send", frame_bytes(frame)))

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


# --------------------------------------------------------------------- #
# worker side: one rank's wire under the shared round loop
# --------------------------------------------------------------------- #
def _desync(comm, frame: Frame, expected: str) -> RuntimeError:
    return RuntimeError(
        f"channel desync on {comm.src}→{comm.dst}: expected {expected}, "
        f"got frame kind {frame.kind} flags {frame.flags}"
    )


class _RankWire:
    """Moves one rank's cross-process payloads for :class:`ScheduleExecutor`.

    ``send`` / ``receive`` read a comm's :data:`~repro.schedule.executor.
    TRANSPORT` row the way the simulator's ``_deliver`` does: a payer
    outside the channel becomes a ``RAW`` frame announcing the scheduled
    size, a managed ride becomes the frames of one attempt walk.
    """

    def __init__(
        self,
        rank: int,
        channel: ResilientChannel,
        compressed: bool,
        send_channels: dict[int, Any],
        recv_channels: dict[int, Any],
        job: RankJob,
        poll_control,
    ) -> None:
        self.rank = rank
        #: the rank-local simulator's channel: the per-link fault indices
        #: (one table with the self-deliveries) and the fault counters
        self.channel = channel
        self.compressed = compressed
        self.recv_channels = recv_channels
        self.job = job
        self.poll_control = poll_control
        self.pool = _SenderPool(send_channels, job.recv_deadline_s)
        self.stats = {"frames_sent": 0, "frames_received": 0, "failed_streams": 0}

    # ------------------------------------------------------------------ #
    # sender side
    # ------------------------------------------------------------------ #
    def _emit(self, dst: int, frame: Frame) -> None:
        self.pool.put_frame(dst, frame)
        self.stats["frames_sent"] += 1

    def _pace(self, dst: int, seconds: float) -> None:
        # time_scale 0 (the default) injects faults without real waits
        self.pool.put_sleep(dst, self.job.time_scale * seconds)

    def send(self, comm, items, sent: int) -> None:
        _, ride, copies = carriage(comm, self.compressed)
        if ride == "raw" or copies:
            # the scheduled transfer itself; the items ride in it when
            # nothing manages them
            blob = dump_items(items) if ride == "raw" else b""
            self._emit(comm.dst, Frame(FRAME_RAW, nbytes=sent, payload=blob))
        if ride == "plain":
            self._transmit(comm.dst, dump_items(items), sent, 0)
        elif ride == "stream":
            for item in items:
                self._transmit(
                    comm.dst, item.to_bytes(), int(item.nbytes), FLAG_COMPRESSED
                )

    def _transmit(self, dst: int, blob: bytes, nbytes: int, flags: int) -> None:
        """One managed message: a frame per non-dropped attempt of the
        channel's walk (``flags``: 0 plain, ``FLAG_COMPRESSED`` a stream).

        A damaged plain frame keeps its payload — the transport checksum
        is modelled by the flag; a damaged stream is damaged **for real**
        and the receiver's validation does the rejecting.  An exhausted
        stream ends in a ``FAIL`` frame: the receiver raises.
        """
        channel, me = self.channel, self.rank
        attempt = 0

        # reads the walk's current ``attempt`` at call time
        def emit(kind: int, extra: int = 0, payload: bytes = blob) -> None:
            frame = Frame(kind, flags | extra, attempt, nbytes, payload)
            self._emit(dst, frame)

        if channel.plan is None:
            emit(FRAME_DATA)
            return
        policy = channel.retry
        try:
            for attempt, index, verdict, duplicate in channel.attempts(
                me, dst, reliable=not flags
            ):
                if verdict == "DROP":
                    self._pace(dst, policy.timeout_s + policy.delay(attempt))
                    continue
                if verdict in DAMAGE_VERDICTS:
                    damaged = blob
                    if flags:
                        damaged = channel.damage(blob, me, dst, index, verdict)
                    if not flags or damaged != blob:
                        emit(FRAME_DATA, FLAG_DAMAGED, damaged)
                        self._pace(dst, policy.delay(attempt))
                        continue
                kind = FRAME_DATA
                if verdict == "FORCED":
                    self._pace(dst, policy.timeout_s)
                    kind = FRAME_FORCED
                if duplicate:
                    emit(kind, FLAG_DUPLICATE)  # wire copy first
                emit(kind)
                return
        except UnrecoverableStreamError:
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

    def receive(self, comm, outcome: Outcome):
        """Receive one comm's payload, accounting wire bytes exactly as the
        simulator's :meth:`ScheduleExecutor._deliver` would."""
        payer, ride, copies = carriage(comm, self.compressed)
        if ride == "raw" or copies:
            frame = self._recv_frame(comm.src)
            if frame.kind != FRAME_RAW:
                raise _desync(comm, frame, "a raw transfer")
            outcome.wire += copies * frame.nbytes
        if ride == "raw":
            return load_items(frame.payload)
        if ride == "plain":
            return self._collect(comm, outcome, 0, True)
        return tuple(
            self._collect(comm, outcome, FLAG_COMPRESSED, payer == "channel")
            for _ in comm.blocks
        )

    def _collect(self, comm, outcome: Outcome, flags: int, charge_base: bool):
        """Counterpart of :meth:`_transmit`: frames are charged under the
        simulator's rule (the base charge only when ``charge_base`` or on a
        retransmission; duplicates always) and every payload goes through
        its decoder — a stream's is the wire format's checksummed parser —
        until one is accepted.  A ``FAIL`` frame raises with nothing billed,
        like the simulated delivery that raised."""
        charged = 0
        kinds = (FRAME_DATA,) if flags else (FRAME_DATA, FRAME_FORCED)
        decode = parse_stream if flags else load_items
        while True:
            frame = self._recv_frame(comm.src)
            if flags and frame.kind == FRAME_FAIL:
                raise UnrecoverableStreamError(
                    comm.src, comm.dst, self.job.retry.max_attempts
                )
            if frame.kind not in kinds or (frame.flags & FLAG_COMPRESSED) != flags:
                raise _desync(
                    comm, frame, "a stream" if flags else "a plain message"
                )
            duplicate = frame.flags & FLAG_DUPLICATE
            if duplicate or charge_base or frame.attempt > 0:
                charged += frame.nbytes
            if duplicate:
                continue
            payload = decode(frame.payload)
            # a flagged frame that still parsed would be a checksum
            # collision on damaged bytes: rejected like the simulator does
            if payload is not None and not frame.flags & FLAG_DAMAGED:
                outcome.wire += charged
                return payload


def execute_rank(
    rank: int,
    n_ranks: int,
    send_channels: dict[int, Any],
    recv_channels: dict[int, Any],
    job: RankJob,
    poll_control,
) -> RankResult:
    """Worker entry point: run one rank's share of one schedule."""
    # rank-local simulator: the codec's compute-charge sink, the channel
    # self-deliveries go through, and the per-link fault index table
    sim = SimCluster(n_ranks, faults=job.plan, retry=job.retry)
    codec = job.spec.build(sim)
    wire = _RankWire(
        rank, sim.channel, codec.compressed_wire, send_channels,
        recv_channels, job, poll_control,
    )
    # sparse rank-indexed state: this worker only ever touches its own
    # slice (codec verbs are all rank-local); None elsewhere keeps any
    # accidental cross-rank access loudly fatal
    state: list = [None] * n_ranks
    state[rank] = job.state
    start = time.perf_counter()
    try:
        outcome = ScheduleExecutor(sim, codec, rank, wire).run(
            job.schedule, state
        )
        if not outcome.aborted:
            wire.pool.flush()
    finally:
        # after a flush this is a no-op; after an abort or an error it
        # drops the frames nobody will read
        wire.pool.abort()
    seconds = time.perf_counter() - start
    buckets = sim.clocks[rank].buckets
    faults = sim.channel.stats
    return RankResult(
        rank=rank,
        state=state[rank],
        wire=outcome.wire,
        degraded=outcome.degraded,
        schedule_aborted=outcome.aborted,
        seconds=seconds,
        compute_seconds=sum(
            buckets.get(b, 0.0) for b in SimCluster._COMPUTE_BUCKETS
        ),
        # the walk's counters under the data plane's key names
        stats=wire.stats | {
            "retransmits": faults.retransmissions,
            "forced_deliveries": faults.forced_deliveries,
            "damaged_rejected": faults.corruptions + faults.truncations,
            "duplicates_discarded": faults.duplicates,
        },
    )


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
