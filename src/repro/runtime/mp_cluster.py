"""Process lifecycle for the multi-process data plane.

An :class:`MPCluster` owns one OS process per rank plus a full mesh of
directed point-to-point channels: one AF_UNIX ``socket.socketpair()`` per
ordered rank pair, each end driven through a
:class:`~repro.runtime.mp_channel.SocketChannel`.  The parent is pure
*control plane*: it forks the workers once, then per schedule sends
each worker its rank-local job, collects per-rank results, and merges
them.  All data-plane traffic flows worker ↔ worker over the channels;
the parent never touches payload bytes.

Like an MPI-4 persistent collective (set up once, started many times),
a cluster ships each schedule to its workers once.  A job is a program
key plus the rank's state: the parent's program table maps a schedule
*object* to its key (row generators are cached, so a row's schedule is
one object, and nothing is hashed per op), the first job of a key also
carries the schedule, and every worker keeps ``{key: schedule}``.  The
table belongs to one cluster and holds :data:`PROGRAM_SLOTS` schedules;
the next new one starts it afresh, and its key 0 tells the workers to
drop theirs too.  A reply carries only what the run changed: a block
still the very object its job delivered comes back as :data:`KEPT`, and
:func:`rebuild_state` puts the parent's own array back in its place.

Each worker has one more socket pair, its control link to the parent,
and it carries frames of the data plane's own format and nothing else:
``FRAME_JOB`` for a job — the items ``(job,)``, or ``(job, schedule)``
for the first of its key — and for the worker's reply (bodies of the one
serialiser, :func:`~repro.runtime.mp_channel.dump_items`, written with
``sendmsg`` straight from the arrays), ``FRAME_ABORT`` and
``FRAME_STOP``.  An idle worker waits for its next control frame with no
deadline.  During a job the parent sends nothing but an abort or a stop,
so the worker takes a readable control socket as an abort and leaves the
frame unread; back in its job loop it skips an ``ABORT`` (the stale
abort of a job already answered) and exits on ``STOP``.

Fail-clean is the design rule real OS processes force on us:

* every blocking receive in a worker during a job carries a real
  wall-clock deadline (``recv_timeout_s``), so a dead peer becomes an
  exception, not a hang;
* the parent's collect loop blocks in ``multiprocessing.connection.wait``
  on the control sockets *and* the workers' process sentinels, so a
  reply and a crash wake it alike — a crashed rank turns into an
  ``MPClusterError`` naming the rank and exit code at once, long before
  any peer's receive deadline;
* any error or degrade triggers an **abort broadcast**:
  pending workers see their control socket turn readable (polled inside
  every channel wait), unwind with
  :class:`~repro.runtime.mp_channel.MPAbortedError`, acknowledge, and
  return to the job loop;
* aborted runs can leave undelivered frames in the channels, so the
  cluster marks itself *poisoned* and refuses further jobs — restart it
  (cheap: one ``fork`` per rank) rather than risk desynchronised channels.

Shutdown sends every worker ``STOP`` — a worker mid-run aborts first,
then reads it — joins with a timeout, terminates stragglers, and closes
every socket the parent holds.  ``MPCluster`` is a context manager; the
``with`` block is the recommended lifecycle.

The worker's schedule interpreter lives in
:mod:`repro.schedule.mp_executor` and is imported lazily inside the
worker main, keeping ``runtime`` free of a module-level dependency on
``schedule`` (the same layering the simulator observes).
"""

from __future__ import annotations

import math
import socket
import time
import traceback
from dataclasses import dataclass, field
from itertools import zip_longest
from multiprocessing.connection import wait
from typing import Any, Iterable, Sequence

import multiprocessing as mp

from .faults import FaultPlan, RetryPolicy
from .mp_channel import (
    FRAME_ABORT,
    FRAME_JOB,
    FRAME_STOP,
    Frame,
    MPAbortedError,
    MPChannelError,
    SenderPool,
    SocketChannel,
    dump_items,
    load_items,
    recv_frame,
    send_frame,
)

__all__ = [
    "KEPT",
    "MPCluster",
    "MPClusterError",
    "MPRun",
    "RankResult",
    "rebuild_state",
]

#: a worker's per-frame receive deadline during a job — generous enough
#: for a loaded CI box, small enough that a wedged run fails in seconds.
DEFAULT_RECV_TIMEOUT_S = 10.0
#: parent-side ceiling on one schedule end to end
JOB_TIMEOUT_S = 120.0
#: schedules one cluster keeps on its workers; the next new one after
#: that many starts the table afresh on both sides
PROGRAM_SLOTS = 64


class _Kept:
    """Type of :data:`KEPT`; pickled by name, so it unpickles as ``KEPT``."""

    def __reduce__(self) -> str:
        return "KEPT"

    def __repr__(self) -> str:
        return "KEPT"


#: a reply's stand-in for a block the run left as the job delivered it
KEPT = _Kept()


class MPClusterError(RuntimeError):
    """A worker crashed, timed out, or the cluster cannot run jobs."""


@dataclass
class RankResult:
    """One worker's answer for one schedule job."""

    rank: int
    #: the rank's blocks after the run; :data:`KEPT` where the block is
    #: still the one its job delivered
    state: dict
    wire: int = 0
    #: an ``UnrecoverableStreamError`` aborted the schedule on this rank —
    #: peers may be stuck waiting and the parent must abort them
    degraded: bool = False
    seconds: float = 0.0
    compute_seconds: float = 0.0
    #: ``compute_seconds`` split by round, in schedule order (the last
    #: entry is what the run charged after its last round)
    round_compute: tuple = ()
    stats: dict = field(default_factory=dict)


@dataclass
class MPRun:
    """Merged outcome of one schedule across all ranks.

    Mirrors :class:`repro.schedule.executor.Outcome` (``state`` /
    ``wire`` / ``degraded``) and adds the measured wall-clock numbers the
    calibration loop consumes.  On a degraded run the state is partial —
    exactly like the simulator, callers rerun a plain fallback.
    """

    state: list
    wire: int = 0
    degraded: bool = False
    #: slowest rank's wall-clock for the schedule = the measured makespan
    makespan_s: float = 0.0
    rank_seconds: tuple = ()
    #: slowest rank's measured kernel time (CPR/DPR/CPT/HPR buckets)
    compute_s: float = 0.0
    #: the kernel time on the critical path: every round waits for its
    #: slowest rank, so the sum over rounds of the slowest rank's compute
    critical_compute_s: float = 0.0
    stats: dict = field(default_factory=dict)


def critical_compute(rounds: Iterable[Sequence[float]]) -> float:
    """Σ over rounds of the largest per-rank compute that round.

    ``rounds`` holds one per-round sequence per rank.  In a schedule of
    bulk-synchronous rounds a rank that is slow in one round and fast in
    the next holds everyone up only in the first, so the critical path is
    this sum, not the largest per-rank total.
    """
    return sum(max(step) for step in zip_longest(*rounds, fillvalue=0.0))


def rebuild_state(reply: dict, sent: dict) -> dict:
    """A rank's state from its trimmed reply: every :data:`KEPT` block
    is the array the parent sent it."""
    return {
        block: sent[block] if value is KEPT else value
        for block, value in reply.items()
    }


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def _worker_main(rank, n_ranks, ctl_sock, send_channels, recv_channels) -> None:
    # Lazy import: the worker interprets schedules, but the runtime layer
    # must not depend on repro.schedule at import time.
    from ..schedule.mp_executor import execute_rank

    ctl = SocketChannel(ctl_sock)
    pool = SenderPool(send_channels)  # started once, reused by every job
    programs: dict[int, Any] = {}  # program key → schedule

    def poll_control() -> None:
        """Raise MPAbortedError once the parent has sent anything: mid-job
        that is an ABORT or a STOP, left for the job loop to read."""
        if ctl.readable():
            raise MPAbortedError("aborted by control plane")

    while True:
        try:
            # idle: one poll(2) with no deadline until the parent speaks
            frame = recv_frame(ctl, math.inf)
        except (MPChannelError, KeyboardInterrupt):
            break
        if frame.kind == FRAME_STOP:
            break
        if frame.kind != FRAME_JOB:  # the stale abort of a job answered
            continue
        try:
            job, *shipped = load_items(frame.payload)
            if shipped:  # the first job of its key carries the schedule
                if job.program == 0:  # the parent started its table afresh
                    programs.clear()
                programs[job.program] = shipped[0]
            result = execute_rank(
                rank, n_ranks, pool, recv_channels, job,
                programs[job.program], poll_control,
            )
            reply = dump_items(("ok", rank, result))
        except MPAbortedError:
            reply = dump_items(("aborted", rank))
        except BaseException as exc:  # report, never die silently
            reply = dump_items(
                (
                    "error",
                    rank,
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                )
            )
        send_frame(
            ctl,
            Frame(FRAME_JOB, payload=reply),
            time.monotonic() + JOB_TIMEOUT_S,
        )
    pool.close()


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class MPCluster:
    """One process per rank + a full mesh of directed channels.

    Parameters
    ----------
    n_ranks : worker count (one OS process each).
    transport : ``"socket"``, the only channel kind; kept as a keyword so
        callers that name it keep working.
    recv_timeout_s : a worker's per-frame receive deadline during a job,
        and the parent's on each job it sends and each reply it reads.
    """

    def __init__(
        self,
        n_ranks: int,
        transport: str = "socket",
        recv_timeout_s: float = DEFAULT_RECV_TIMEOUT_S,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if transport != "socket":
            raise ValueError(
                f"transport {transport!r} is not available: the "
                "shared-memory transport was removed, every channel is a "
                "socket pair"
            )
        self.n_ranks = n_ranks
        self.recv_timeout_s = recv_timeout_s
        self._procs: list = []
        #: one control link per worker: jobs and signals out, replies back
        self._ctl: list[SocketChannel] = []
        self._sockets: list = []
        self._started = False
        self._closed = False
        self._poisoned: str | None = None
        #: id(schedule) → (program key, schedule): what the workers hold;
        #: the entry keeps the schedule alive, so its id stays its own
        self._programs: dict[int, tuple[int, Any]] = {}
        #: schedules shipped to the workers, once per key (each to all)
        self.programs_shipped = 0

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "MPCluster":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> None:
        """Create the channel mesh and fork one worker per rank."""
        if self._started:
            return
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platform
            raise MPClusterError(
                "the multi-process data plane needs the 'fork' start "
                "method (channels are inherited, not pickled)"
            ) from exc
        n = self.n_ranks
        # send_channels[i][j] : channel rank i writes to reach rank j;
        # recv_channels[j][i] is the same underlying pipe, read side.
        send_channels: list[dict[int, Any]] = [{} for _ in range(n)]
        recv_channels: list[dict[int, Any]] = [{} for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    a, b = socket.socketpair()
                    self._sockets.extend((a, b))
                    send_channels[i][j] = SocketChannel(a)
                    recv_channels[j][i] = SocketChannel(b)
        try:
            for rank in range(n):
                ctl, child = socket.socketpair()
                self._ctl.append(SocketChannel(ctl))
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        n,
                        child,
                        send_channels[rank],
                        recv_channels[rank],
                    ),
                    name=f"repro-mp-rank{rank}",
                    daemon=True,
                )
                proc.start()
                child.close()  # the worker holds its copy
                self._procs.append(proc)
        except BaseException:
            self._teardown(force=True)
            raise
        self._started = True

    # ------------------------------------------------------------------ #
    def run_schedule(
        self,
        schedule,
        spec,
        state: list,
        plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> MPRun:
        """Execute one schedule across the workers and merge the results.

        ``state`` is the usual rank-indexed list of block dicts; each
        worker receives only its own slice, and ``schedule`` itself only
        the first time this cluster runs it.  ``spec`` is a
        :class:`~repro.schedule.mp_executor.CodecSpec` — codecs hold
        numpy arrays and engines, so they are rebuilt worker-side from
        this picklable description rather than shipped.
        """
        if not self._started or self._closed:
            raise MPClusterError("cluster is not running (call start())")
        if self._poisoned is not None:
            raise MPClusterError(
                f"cluster poisoned by a previous aborted run "
                f"({self._poisoned}); start a fresh MPCluster"
            )
        if schedule.n_ranks != self.n_ranks:
            raise MPClusterError(
                f"schedule wants {schedule.n_ranks} ranks, "
                f"cluster has {self.n_ranks}"
            )
        if len(state) != self.n_ranks:
            raise MPClusterError(
                f"state has {len(state)} rank slices for "
                f"{self.n_ranks} ranks"
            )
        for rank, proc in enumerate(self._procs):
            if not proc.is_alive():
                self.shutdown()
                raise MPClusterError(
                    f"worker {rank} died before dispatch "
                    f"(exitcode {proc.exitcode}); start a fresh MPCluster"
                )
        retry = retry if retry is not None else RetryPolicy()
        from ..schedule.mp_executor import RankJob  # lazy, see module doc

        key, shipped = self._program(schedule)
        for rank in range(self.n_ranks):
            job = RankJob(
                program=key,
                spec=spec,
                state=state[rank],
                plan=plan,
                retry=retry,
                recv_deadline_s=self.recv_timeout_s,
            )
            try:
                send_frame(
                    self._ctl[rank],
                    Frame(FRAME_JOB, payload=dump_items((job, *shipped))),
                    time.monotonic() + self.recv_timeout_s,
                )
            except (OSError, MPChannelError) as exc:
                # a worker died between the liveness check and dispatch
                self.shutdown()
                raise MPClusterError(
                    f"worker {rank} unreachable at dispatch ({exc}); "
                    "start a fresh MPCluster"
                ) from exc
        return self._collect(state)

    def _program(self, schedule) -> tuple[int, tuple]:
        """``schedule``'s key in the program table, and what the job must
        carry for the workers to run it: the schedule itself the first
        time, nothing after.  Keys count up from 0, so the key 0 of a
        table started afresh tells the workers to drop theirs too."""
        entry = self._programs.get(id(schedule))
        if entry is not None:
            return entry[0], ()
        if len(self._programs) >= PROGRAM_SLOTS:
            self._programs.clear()
        key = len(self._programs)
        self._programs[id(schedule)] = (key, schedule)
        self.programs_shipped += 1
        return key, (schedule,)

    # ------------------------------------------------------------------ #
    def _collect(self, sent: list) -> MPRun:
        n = self.n_ranks
        results: dict[int, RankResult] = {}
        failures: dict[int, str] = {}
        first_traceback: str | None = None
        aborted: set[int] = set()
        pending = set(range(n))
        abort_sent = False
        deadline = time.monotonic() + JOB_TIMEOUT_S

        def broadcast_abort() -> None:
            nonlocal abort_sent
            if abort_sent:
                return
            abort_sent = True
            for r in sorted(pending):
                self._signal(r, FRAME_ABORT)

        while pending:
            # a reply and a death wake the parent alike: no timer, no probe
            watched = {}
            for r in pending:
                watched[self._ctl[r].sock] = r
                watched[self._procs[r].sentinel] = r
            ready = wait(list(watched), max(0.0, deadline - time.monotonic()))
            if not ready:
                for r in sorted(pending):
                    failures[r] = (
                        f"no result within the {JOB_TIMEOUT_S:.0f}s "
                        f"job deadline"
                    )
                break
            for r in sorted({watched[obj] for obj in ready}):
                pending.discard(r)
                msg = lost = None
                # a reply sent just before the exit is already on the socket
                if self._ctl[r].readable():
                    try:
                        frame = recv_frame(
                            self._ctl[r], time.monotonic() + self.recv_timeout_s
                        )
                        msg = load_items(frame.payload)
                    except MPChannelError as exc:  # e.g. reset by a death
                        lost = exc
                if msg is None:
                    proc = self._procs[r]
                    proc.join(timeout=1.0)  # reaped: its sentinel has fired
                    failures[r] = (
                        f"reply lost: {lost}"
                        if proc.exitcode is None
                        else "worker died without reporting "
                        f"(exitcode {proc.exitcode})"
                    )
                    broadcast_abort()
                    continue
                if msg[0] == "ok":
                    results[r] = msg[2]
                    if msg[2].degraded:
                        # peers may block forever on frames this rank
                        # will never send — release them now
                        broadcast_abort()
                elif msg[0] == "aborted":
                    aborted.add(r)
                else:  # ("error", rank, summary, traceback)
                    failures[r] = msg[2]
                    if first_traceback is None:
                        first_traceback = msg[3]
                    broadcast_abort()

        if failures:
            # a failed run leaves channels in an unknown state: tear the
            # whole cluster down so nothing can reuse them
            detail = "; ".join(
                f"rank {r}: {m}" for r, m in sorted(failures.items())
            )
            self.shutdown()
            if first_traceback:
                detail += "\n--- first worker traceback ---\n" + first_traceback
            raise MPClusterError(f"schedule run failed: {detail}")

        degraded = bool(aborted) or any(
            res.degraded for res in results.values()
        )
        if degraded:
            self._poisoned = "a degrade aborted the run"

        state: list = [None] * n
        stats: dict[str, int] = {}
        for r, res in results.items():
            state[r] = rebuild_state(res.state, sent[r])
            for key, val in res.stats.items():
                stats[key] = stats.get(key, 0) + val
        return MPRun(
            state=state,
            wire=sum(res.wire for res in results.values()),
            degraded=degraded,
            makespan_s=max(
                (res.seconds for res in results.values()), default=0.0
            ),
            rank_seconds=tuple(
                results[r].seconds if r in results else float("nan")
                for r in range(n)
            ),
            compute_s=max(
                (res.compute_seconds for res in results.values()), default=0.0
            ),
            critical_compute_s=critical_compute(
                res.round_compute for res in results.values()
            ),
            stats=stats,
        )

    def _signal(self, rank: int, kind: int) -> None:
        """Send ``rank`` a payload-free control frame (``ABORT``/``STOP``);
        a worker that is gone is left to its sentinel."""
        try:
            send_frame(
                self._ctl[rank], Frame(kind), time.monotonic() + self.recv_timeout_s
            )
        except MPChannelError:
            pass

    # ------------------------------------------------------------------ #
    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        """Stop the workers and release every OS resource (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for rank in range(len(self._ctl)):
            self._signal(rank, FRAME_STOP)
        per_join = join_timeout_s / max(len(self._procs), 1)
        for proc in self._procs:
            proc.join(timeout=per_join)
        self._teardown(force=True)

    def _teardown(self, force: bool) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(timeout=1.0)
        for ctl in self._ctl:
            ctl.close()
        for sock in self._sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover - teardown race
                pass
        self._procs = []
        self._ctl = []
        self._sockets = []

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        # getattr: __init__ may have raised before setting the flags
        if getattr(self, "_started", False) and not self._closed:
            try:
                self.shutdown(join_timeout_s=1.0)
            except Exception:
                pass
