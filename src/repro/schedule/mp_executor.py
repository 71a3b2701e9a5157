"""Multi-process execution of the Schedule IR (the real data plane).

:class:`MPExecutor` runs the **same frozen** :class:`~repro.schedule.ir.
Schedule` objects through the **same round loop** as the simulator, but
for real: one OS process per rank (see :mod:`repro.runtime.mp_cluster`),
each running :class:`~repro.schedule.executor.ScheduleExecutor` *as its
rank* over a rank-local :class:`SimCluster`, with a :class:`_RankWire`
moving the payloads whose other end is another process — bytes over
socket pairs (see :mod:`repro.runtime.mp_channel`),
under the cluster's wall-clock receive deadline, with the faults of the
same :class:`~repro.runtime.faults.FaultPlan` the simulator models.  Pack
order, delivery order, fold/store/stage, local ops and the degrade path
are therefore the simulator's by construction; the rank-local cluster
doubles as the codec's compute-charge sink, so each rank reports real
measured kernel seconds for the calibration loop.

A :class:`RankJob` is a program key plus the rank's state, codec recipe
and fault plan; the schedule the key names reaches a worker once per
cluster, with the first job of that key (see :mod:`repro.runtime.
mp_cluster`).  :func:`execute_rank` answers with only what the run
changed: a block that is still the object the job delivered comes back
as :data:`~repro.runtime.mp_cluster.KEPT`.

The correctness contract is **bit-identical** ``state``, **identical**
``wire`` and equal fault counters versus the simulator for every
schedule × codec pair, seeded faults included — on every run that does
not degrade.  When a stream is unrecoverable the schedule aborts and the
ranks stop at different comms, so a degraded run matches the simulator
on ``degraded`` only: its ``wire`` and counters are the sum of wherever
each rank happened to stop, its state is partial, and the cluster is
poisoned (undelivered frames may sit in the channels).

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
different rank; the worker starts them once, see
:class:`~repro.runtime.mp_channel.SenderPool`), a frame toward an idle
destination is first tried inline with a send that never blocks, and
receivers drain their incoming comms in schedule order; since every
frame queued in a round is consumed in that same round, the only waits
are true data dependencies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any

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
    Frame,
    SenderPool,
    dump_items,
    load_items,
    recv_frame,
)
from ..runtime.mp_cluster import KEPT, MPCluster, RankResult
from .codecs import CODECS, discipline_of
from .executor import Outcome, ScheduleExecutor
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

    kind: str  # a repro.schedule.codecs.CODECS key
    error_bound: float = 1e-3
    block_size: int = 32
    n_threadblocks: int = 8
    #: slot → span-name overrides (``None`` skips the phase), as items so
    #: the spec stays hashable; ``None`` keeps the codec's defaults.
    slots: tuple[tuple[str, str | None], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in CODECS:
            raise ValueError(
                f"unknown codec kind {self.kind!r}; one of {tuple(CODECS)}"
            )

    def build(self, cluster: SimCluster):
        """Construct the codec bound to ``cluster`` as its charge sink,
        under its kind's table with this spec's ``slots``."""
        config = SimpleNamespace(
            block_size=self.block_size,
            n_threadblocks=self.n_threadblocks,
            error_bound=self.error_bound,
        )
        codec = CODECS[self.kind](cluster, config)
        codec.discipline = discipline_of(self.kind, self.slots)
        return codec


@dataclass(frozen=True)
class RankJob:
    """Everything one worker needs to run its slice of a schedule, bar
    the schedule itself: ``program`` is its key in the cluster's program
    table (see :class:`~repro.runtime.mp_cluster.MPCluster`), which a
    worker fills from the first job of each key."""

    program: int
    spec: CodecSpec
    state: dict
    plan: FaultPlan | None
    retry: RetryPolicy
    recv_deadline_s: float


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

    ``send`` / ``receive`` split a comm the way the simulator's
    ``_deliver`` does: a plain comm is one message, a compressed one a
    message per stream, and each message is the frames of one attempt
    walk.
    """

    def __init__(
        self,
        rank: int,
        channel: ResilientChannel,
        compressed: bool,
        pool: SenderPool,
        recv_channels: dict[int, Any],
        job: RankJob,
        poll_control,
    ) -> None:
        self.rank = rank
        #: the rank-local simulator's channel: the per-link fault indices
        #: and the fault counters
        self.channel = channel
        self.compressed = compressed
        self.recv_channels = recv_channels
        self.job = job
        self.poll_control = poll_control
        self.pool = pool
        self.stats = {"frames_sent": 0, "frames_received": 0, "failed_streams": 0}

    # ------------------------------------------------------------------ #
    # sender side
    # ------------------------------------------------------------------ #
    def _emit(self, dst: int, frame: Frame) -> None:
        self.pool.put_frame(dst, frame)
        self.stats["frames_sent"] += 1

    def send(self, comm, items, sent: int) -> None:
        if not self.compressed:
            self._transmit(comm.dst, dump_items(items), sent, 0)
            return
        for item in items:
            self._transmit(
                comm.dst, item.to_bytes(), int(item.nbytes), FLAG_COMPRESSED
            )

    def _transmit(self, dst: int, blob, nbytes: int, flags: int) -> None:
        """One message: a frame per non-dropped attempt of the channel's
        walk (``flags``: 0 plain — ``blob`` is the parts of
        :func:`dump_items` —, ``FLAG_COMPRESSED`` a stream's bytes).

        A damaged plain frame keeps its payload — the plain path's checksum
        is modelled by the flag; a damaged stream is damaged **for real**
        and the receiver's validation does the rejecting.  An exhausted
        stream ends in a ``FAIL`` frame: the receiver raises.
        """
        channel, me = self.channel, self.rank
        attempt = 0

        # reads the walk's current ``attempt`` at call time
        def emit(kind: int, extra: int = 0, payload=blob) -> None:
            frame = Frame(kind, flags | extra, attempt, nbytes, payload)
            self._emit(dst, frame)

        if channel.plan is None:
            emit(FRAME_DATA)
            return
        try:
            for attempt, index, verdict, duplicate in channel.attempts(
                me, dst, reliable=not flags
            ):
                if verdict == "DROP":
                    continue
                if verdict in DAMAGE_VERDICTS:
                    damaged = blob
                    if flags:
                        damaged = channel.damage(blob, me, dst, index, verdict)
                    if not flags or damaged != blob:
                        emit(FRAME_DATA, FLAG_DAMAGED, damaged)
                        continue
                kind = FRAME_FORCED if verdict == "FORCED" else FRAME_DATA
                if duplicate:
                    emit(kind, FLAG_DUPLICATE)  # wire copy first
                emit(kind)
                return
        except UnrecoverableStreamError:
            self.stats["failed_streams"] += 1
            self._emit(
                dst, Frame(FRAME_FAIL, attempt=channel.retry.max_attempts)
            )

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
        if not self.compressed:
            return self._collect(comm, outcome, 0)
        return tuple(
            self._collect(comm, outcome, FLAG_COMPRESSED) for _ in comm.blocks
        )

    def _collect(self, comm, outcome: Outcome, flags: int):
        """Counterpart of :meth:`_transmit`: frames are billed under the
        simulator's rule — the accepted message once, at its scheduled
        size, plus every retransmitted (``attempt > 0``) and duplicate
        frame — and every payload goes through its decoder (a stream's is
        the wire format's checksummed parser) until one is accepted.  A
        ``FAIL`` frame raises with nothing billed: the run degrades, and a
        degraded run promises no ``wire``."""
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
            if duplicate or frame.attempt > 0:
                charged += frame.nbytes
            if duplicate:
                continue
            payload = decode(frame.payload)
            # a flagged frame that still parsed would be a checksum
            # collision on damaged bytes: rejected like the simulator does
            if payload is not None and not frame.flags & FLAG_DAMAGED:
                outcome.wire += charged + frame.nbytes
                return payload


@dataclass
class _RankCluster(SimCluster):
    """A worker's rank-local simulator that also splits its rank's
    measured kernel time by round, where the critical path is decided."""

    rank: int = 0
    rounds: list = field(default_factory=list)
    _spent: float = 0.0

    def close_round(self) -> None:
        buckets = self.clocks[self.rank].buckets
        spent = sum(buckets.get(b, 0.0) for b in self._COMPUTE_BUCKETS)
        self.rounds.append(spent - self._spent)
        self._spent = spent

    def end_round(self, *args, **kwargs) -> float:
        self.close_round()
        return super().end_round(*args, **kwargs)

    def end_compute_phase(self) -> float:
        self.close_round()
        return super().end_compute_phase()


def execute_rank(
    rank: int,
    n_ranks: int,
    pool: SenderPool,
    recv_channels: dict[int, Any],
    job: RankJob,
    schedule: Schedule,
    poll_control,
) -> RankResult:
    """Worker entry point: run one rank's share of ``schedule``, the
    program ``job.program`` names.

    ``pool`` is the worker's long-lived sender pool; the job leaves it
    empty — flushed, or on an abort or an error drained unsent.  The
    result's state is trimmed: a block that is still the very object the
    job delivered comes back as :data:`~repro.runtime.mp_cluster.KEPT`,
    which the parent replaces by the array it sent.  That is sound
    because no codec writes a job's input arrays — a fold allocates its
    sum, a pack reads, and the homomorphic codec replaces every block at
    ``prepare``.
    """
    # rank-local simulator: the codec's compute-charge sink and the
    # per-link fault index table.  Its plan models no stragglers: a
    # straggler's slowdown is the simulator's stand-in for a slow
    # process, and here the compute charges are the measured seconds.
    plan = job.plan and replace(job.plan, stragglers=())
    sim = _RankCluster(n_ranks, faults=plan, retry=job.retry, rank=rank)
    codec = job.spec.build(sim)
    pool.deadline_s = job.recv_deadline_s
    wire = _RankWire(
        rank, sim.channel, codec.discipline.compressed_wire, pool,
        recv_channels, job, poll_control,
    )
    # sparse rank-indexed state: this worker only ever touches its own
    # slice (codec verbs are all rank-local); None elsewhere keeps any
    # accidental cross-rank access loudly fatal
    state: list = [None] * n_ranks
    state[rank] = job.state
    delivered = dict(job.state)  # the run refills job.state in place
    start = time.perf_counter()
    try:
        outcome = ScheduleExecutor(sim, codec, rank, wire).run(
            schedule, state
        )
        if not outcome.degraded:
            pool.flush()
    finally:
        # after a flush this is a no-op; after an abort or an error it
        # drops the frames nobody will read
        pool.abort()
    seconds = time.perf_counter() - start
    sim.close_round()  # what the run charged after its last round (seal)
    faults = sim.channel.stats
    return RankResult(
        rank=rank,
        state={
            block: KEPT if delivered.get(block, KEPT) is value else value
            for block, value in state[rank].items()
        },
        wire=outcome.wire,
        degraded=outcome.degraded,
        seconds=seconds,
        compute_seconds=sim._spent,
        round_compute=tuple(sim.rounds),
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
