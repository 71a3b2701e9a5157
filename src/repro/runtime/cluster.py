"""In-process SPMD cluster simulator.

The paper evaluates on up to 512 physical nodes; here the ranks are virtual
— each holds its own buffers and virtual clock, and the collective
algorithms execute every rank's computation *for real* (bit-exact results)
while **communication time is modelled** by :class:`~repro.runtime.network.
NetworkModel` and **computation time is measured** around the actual
kernel invocations.

Time advances bulk-synchronously: ring collectives proceed in rounds, a
round costs the slowest rank's compute plus the modelled exchange, and the
per-bucket ledgers feed the paper-style breakdowns (Figure 2, Table VII).

Thread modes: the physical testbed runs the compressor on 1 ("single-
thread") or 18 ("multi-thread") cores.  Python measurements are inherently
single-stream, so multi-thread mode divides measured *compression-family*
times (CPR/DPR/HPR/CPT) by a configurable ``thread_speedup`` — the
substitution documented in DESIGN.md.  Communication time is never scaled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..utils.validation import ensure_positive, ensure_positive_int
from .clock import Breakdown, VirtualClock
from .faults import FaultPlan, ResilientChannel, RetryPolicy
from .network import NetworkModel, OMNIPATH_100G
from .trace import Recorder, TraceLog

# .trace must be imported before repro.obs (spans depends on it); keeping
# obs.metrics dependency-free closes the cycle the other way.
from ..obs.metrics import METRICS

__all__ = ["SimCluster", "TraceScope", "measured"]


@contextmanager
def measured() -> Iterator[list[float]]:
    """Measure a code block's wall time; result lands in the yielded list."""
    out = [0.0]
    start = time.perf_counter()
    try:
        yield out
    finally:
        out[0] = time.perf_counter() - start


@dataclass
class TraceScope:
    """Handle yielded by :meth:`SimCluster.collective`.

    After the ``with`` block exits, ``trace`` holds the collective's own
    scoped :class:`TraceLog` slice (or ``None`` when tracing is off).
    """

    name: str
    trace: TraceLog | None = None


class _Timed:
    """The ``with`` scope of :meth:`SimCluster.timed`: a plain class, as it
    wraps every kernel call a collective makes."""

    __slots__ = ("cluster", "rank", "bucket", "start")

    def __init__(self, cluster: "SimCluster", rank: int, bucket: str) -> None:
        self.cluster, self.rank, self.bucket = cluster, rank, bucket

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.cluster.charge_compute(
            self.rank, self.bucket, time.perf_counter() - self.start
        )


@dataclass
class SimCluster:
    """N virtual ranks + a network model + per-rank virtual clocks.

    Parameters
    ----------
    n_ranks : number of simulated nodes (one process per node, as in the
        paper's runs).
    network : interconnect model; defaults to the paper's 100 Gbps
        Omni-Path.
    thread_speedup : divisor applied to compute-family charges in
        multi-thread mode (see module docstring).
    multithread : whether collectives run in multi-thread mode.
    faults : optional seeded fault plan injected on every channel delivery
        (see :mod:`repro.runtime.faults`); ``None`` means a healthy fabric.
    retry : timeout/backoff policy governing retransmissions under faults.
    """

    n_ranks: int
    network: NetworkModel = OMNIPATH_100G
    thread_speedup: float = 6.0
    multithread: bool = False
    clocks: list[VirtualClock] = field(default_factory=list)
    total_time: float = 0.0
    #: optional execution trace (per-charge events + round boundaries);
    #: anything satisfying the :class:`~repro.runtime.trace.Recorder`
    #: protocol works — :class:`TraceLog` is the shipped implementation.
    trace: Recorder | None = None
    faults: FaultPlan | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    _round_compute: list[float] = field(default_factory=list)
    _channel: ResilientChannel | None = field(default=None, repr=False)

    _COMPUTE_BUCKETS = frozenset({"CPR", "DPR", "CPT", "HPR"})

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_ranks, "n_ranks")
        ensure_positive(self.thread_speedup, "thread_speedup")
        if not self.clocks:
            self.clocks = [VirtualClock() for _ in range(self.n_ranks)]
        if len(self.clocks) != self.n_ranks:
            raise ValueError("clocks length must equal n_ranks")
        self._round_compute = [0.0] * self.n_ranks

    @property
    def channel(self) -> ResilientChannel:
        """The fault-aware delivery layer (lazily built, reset-aware).

        Link indices and fault statistics persist across collective stages
        within one cluster lifetime, so a Reduce_scatter → Allgather pair
        experiences one continuous fault sequence.
        """
        if self._channel is None:
            self._channel = ResilientChannel(self)
        return self._channel

    # ------------------------------------------------------------------ #
    # charging
    # ------------------------------------------------------------------ #
    def charge_compute(self, rank: int, bucket: str, seconds: float) -> None:
        """Charge measured compute time to a rank (thread-mode scaled).

        Straggler ranks in the active fault plan run proportionally slower:
        their charges are multiplied by the plan's ``straggler_factor``.
        """
        if bucket in self._COMPUTE_BUCKETS and self.multithread:
            seconds /= self.thread_speedup
        if self.faults is not None:
            seconds *= self.faults.slowdown(rank)
        self.clocks[rank].charge(bucket, seconds)
        self._round_compute[rank] += seconds
        if self.trace is not None:
            self.trace.record_compute(rank, bucket, seconds)

    def charge_comm(
        self,
        rank: int,
        nbytes: int,
        bandwidth_factor: float = 1.0,
        n_flows: int | None = None,
        link_scale: float = 1.0,
    ) -> float:
        """Charge one rank's modelled transfer; returns the seconds charged.

        ``bandwidth_factor`` (0 < f ≤ 1) stretches the transfer for
        degraded links: effective time = modelled time / factor.
        ``n_flows`` is the congestion-law argument — how many flows contend
        for the fabric during this transfer (``None`` = all ``n_ranks``,
        the flat-collective default); ``link_scale`` > 1 speeds the
        transfer up for rounds riding faster intra-node links.
        """
        seconds = self.network.transfer_time(
            nbytes, self.n_ranks if n_flows is None else n_flows
        )
        if link_scale != 1.0:
            seconds /= link_scale
        if bandwidth_factor != 1.0:
            seconds /= bandwidth_factor
        self.clocks[rank].charge("MPI", seconds)
        if self.trace is not None:
            self.trace.record_comm(rank, seconds, nbytes)
        if METRICS.enabled:
            METRICS.inc("wire.bytes", nbytes)
            METRICS.inc("wire.transfers")
        return seconds

    def charge_wait(self, rank: int, seconds: float, label: str) -> None:
        """Charge fault-handling wait time (timeouts, backoff) to a rank.

        Waits land in the OTHER bucket — they are neither useful compute
        nor modelled transfer — and count toward the round's critical path,
        so retransmission storms visibly stretch the makespan.
        """
        self.clocks[rank].charge("OTHER", seconds)
        self._round_compute[rank] += seconds
        self.record_fault(rank, label, seconds=seconds)

    def record_fault(
        self, rank: int, label: str, seconds: float = 0.0, nbytes: int = 0
    ) -> None:
        """Record a fault event (DROP/CORRUPT/…/DEGRADE) in the trace."""
        if self.trace is not None:
            self.trace.record_fault(rank, label, seconds=seconds, nbytes=nbytes)
        if METRICS.enabled:
            METRICS.inc(f"faults.{label.lower()}")
            if seconds > 0.0:
                METRICS.inc("faults.wait_s", seconds)

    def timed(self, rank: int, bucket: str) -> "_Timed":
        """Measure the enclosed kernel call and charge it to ``rank``
        (also when it raises)."""
        return _Timed(self, rank, bucket)

    # ------------------------------------------------------------------ #
    # round synchronisation
    # ------------------------------------------------------------------ #
    def end_round(
        self,
        max_message_bytes: int,
        n_flows: int | None = None,
        link_scale: float = 1.0,
    ) -> float:
        """Close a bulk-synchronous round; returns the round's duration.

        Round time = slowest rank's compute this round + the modelled ring
        exchange of the largest in-flight message (full-duplex links).
        ``n_flows`` is the number of flows concurrently on the fabric
        (``None`` = all ranks — the flat-collective default); hierarchical
        schedules pass the round's declared concurrency so an intra-node
        exchange is not charged job-wide congestion.  ``link_scale``
        speeds up rounds riding faster intra-node links.
        """
        comm = (
            self.network.ring_round_time(
                max_message_bytes,
                self.n_ranks if n_flows is None else n_flows,
            )
            / link_scale
            if max_message_bytes >= 0
            else 0.0
        )
        duration = max(self._round_compute, default=0.0) + comm
        self.total_time += duration
        self._round_compute = [0.0] * self.n_ranks
        if self.trace is not None:
            self.trace.record_round(duration, comm=comm)
        return duration

    def end_compute_phase(self) -> float:
        """Close a compute-only phase (no exchange), e.g. initial compression."""
        duration = max(self._round_compute, default=0.0)
        self.total_time += duration
        self._round_compute = [0.0] * self.n_ranks
        if self.trace is not None:
            self.trace.record_round(duration, comm=0.0)
        return duration

    # ------------------------------------------------------------------ #
    # span scopes
    # ------------------------------------------------------------------ #
    @contextmanager
    def collective(self, name: str) -> Iterator[TraceScope]:
        """Scope one collective operation; the yielded handle receives the
        operation's own rebased trace slice when the block exits.

        No-ops (yielding an empty scope) when tracing is off, so collectives
        can wrap themselves unconditionally.
        """
        scope = TraceScope(name)
        if self.trace is None:
            yield scope
            return
        mark = self.trace.mark()
        time_start = self.total_time
        self.trace.begin_span("collective", name, time_start)
        try:
            yield scope
        finally:
            self.trace.end_span("collective", name, self.total_time)
            scope.trace = self.trace.scoped(mark, time_start)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope one algorithmic phase (``compress``, ``exchange``, …)."""
        if self.trace is None:
            yield
            return
        self.trace.begin_span("phase", name, self.total_time)
        try:
            yield
        finally:
            self.trace.end_span("phase", name, self.total_time)

    # ------------------------------------------------------------------ #
    def breakdown(self) -> Breakdown:
        """Paper-style rank-averaged breakdown with critical-path total."""
        return Breakdown.from_clocks(self.clocks, self.total_time)

    def reset(self) -> None:
        """Clear all clocks and accumulated time (fresh collective).

        The trace is *rotated* — replaced with a fresh log rather than
        cleared in place — so references handed out before the reset (e.g.
        a ``CollectiveResult``'s scoped slice source) stay intact while the
        next run starts from round 0 with no stale events.
        """
        self.clocks = [VirtualClock() for _ in range(self.n_ranks)]
        self.total_time = 0.0
        self._round_compute = [0.0] * self.n_ranks
        self._channel = None
        if self.trace is not None:
            self.trace = TraceLog()
