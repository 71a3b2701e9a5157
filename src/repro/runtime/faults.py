"""Fault injection and resilient delivery for the simulated cluster.

The paper's claim is that compressed collectives stay *correct*; this
module supplies the adversary that claim is tested against.  A
:class:`FaultPlan` is a seeded, purely functional description of what goes
wrong on the virtual fabric — message drops, payload corruption or
truncation, duplicate delivery, per-rank stragglers, and per-link
bandwidth degradation.  Decisions depend only on ``(seed, source, dest,
message_index)``, never on wall time or call interleaving, so any run
replays bit-identically from its seed.

Delivery goes through a :class:`ResilientChannel` owned by the
:class:`~repro.runtime.cluster.SimCluster`.  What happens to a message,
attempt by attempt, is written once (:meth:`ResilientChannel.attempts`);
the simulated channel walks it charging virtual time, the multi-process
sender walks it emitting frames:

* a **dropped** message is detected by receiver timeout; the sender
  retransmits after a bounded exponential backoff, and every wait is
  charged to the receiver's virtual clock (``OTHER`` bucket) and recorded
  in the trace;
* a **corrupted/truncated** compressed stream is damaged at the byte
  level and fails the wire format's checksum on decode; the receiver
  NACKs and the sender retransmits (same backoff schedule);
* a **duplicated** message pays wire time twice; the receiver discards
  the copy;
* when ``max_attempts`` transmissions of a compressed stream all fail,
  the channel raises :class:`UnrecoverableStreamError` and the collective
  **degrades**: it falls back to the plain uncompressed kernel for the
  remainder of the operation (recorded as a ``DEGRADE`` trace event and
  on the result's ``degraded`` flag) — never a hang, never silently wrong
  data;
* the **plain** path models a transport with reliable checksummed
  delivery: faults cost time (timeouts, retransmissions), but the payload
  always arrives intact, which is why it is a safe fallback floor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from ..compression.format import from_bytes
from ..obs.metrics import METRICS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import SimCluster

__all__ = [
    "NO_FAULT",
    "FaultDecision",
    "FaultPlan",
    "RetryPolicy",
    "FaultStats",
    "Delivery",
    "ResilientChannel",
    "UnrecoverableStreamError",
    "DAMAGE_VERDICTS",
    "parse_stream",
]

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(*parts: int) -> int:
    """Deterministic 64-bit hash of integer parts (FNV-1a + avalanche).

    Python's ``hash`` is stable for ints but ``random.Random`` refuses
    tuple seeds; this keeps fault decisions platform- and process-stable
    without constructing an RNG per message.
    """
    h = _FNV_OFFSET
    for p in parts:
        h ^= p & _MASK
        h = (h * _FNV_PRIME) & _MASK
        h ^= h >> 29
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 32
    return h


def _unit(*parts: int) -> float:
    """Uniform float in ``[0, 1)`` derived from the parts."""
    return _mix(*parts) / float(1 << 64)


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one transmission attempt (at most one fault kind)."""

    drop: bool = False
    corrupt: bool = False
    truncate: bool = False
    duplicate: bool = False

    @property
    def faulty(self) -> bool:
        return self.drop or self.corrupt or self.truncate or self.duplicate


NO_FAULT = FaultDecision()
_DROP = FaultDecision(drop=True)
_CORRUPT = FaultDecision(corrupt=True)
_TRUNCATE = FaultDecision(truncate=True)
_DUPLICATE = FaultDecision(duplicate=True)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic description of fabric misbehaviour.

    Rates are per-transmission-attempt probabilities; at most one fault
    fires per attempt (rates must sum to ≤ 1).  ``stragglers`` ranks have
    their compute charges scaled by ``straggler_factor``; ``degraded_links``
    lists ``(source, dest, factor)`` triples with ``0 < factor ≤ 1``
    multiplying the link's effective bandwidth.

    The plan is immutable and purely functional: every decision is a hash
    of ``(seed, source, dest, index)``, so two runs over the same message
    sequence inject byte-identical faults.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    stragglers: tuple[int, ...] = ()
    straggler_factor: float = 1.0
    degraded_links: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        rates = (
            self.drop_rate,
            self.corrupt_rate,
            self.truncate_rate,
            self.duplicate_rate,
        )
        for r in rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"fault rates must be in [0, 1], got {r}")
        if sum(rates) > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(
            self, "degraded_links", tuple(tuple(x) for x in self.degraded_links)
        )
        for src, dst, factor in self.degraded_links:
            if not 0.0 < factor <= 1.0:
                raise ValueError(
                    f"link ({src}, {dst}) bandwidth factor must be in (0, 1], "
                    f"got {factor}"
                )

    # ------------------------------------------------------------------ #
    def decide(self, source: int, dest: int, index: int) -> FaultDecision:
        """Fault (if any) for the ``index``-th attempt on link src→dest."""
        total = (
            self.drop_rate
            + self.corrupt_rate
            + self.truncate_rate
            + self.duplicate_rate
        )
        if total == 0.0:
            return NO_FAULT
        u = _unit(self.seed, 0x01, source, dest, index)
        if u < self.drop_rate:
            return _DROP
        u -= self.drop_rate
        if u < self.corrupt_rate:
            return _CORRUPT
        u -= self.corrupt_rate
        if u < self.truncate_rate:
            return _TRUNCATE
        u -= self.truncate_rate
        if u < self.duplicate_rate:
            return _DUPLICATE
        return NO_FAULT

    def slowdown(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` (1.0 = healthy)."""
        return self.straggler_factor if rank in self.stragglers else 1.0

    def bandwidth_factor(self, source: int, dest: int) -> float:
        """Effective-bandwidth multiplier for the src→dest link (≤ 1)."""
        factor = 1.0
        for src, dst, f in self.degraded_links:
            if src == source and dst == dest:
                factor = min(factor, f)
        return factor

    def corrupt_stream(
        self, blob: bytes, source: int, dest: int, index: int, truncate: bool = False
    ) -> bytes:
        """Deterministically damage a serialised stream.

        Corruption XORs one byte with a non-zero mask (so the stream always
        actually changes); truncation cuts the stream strictly shorter.
        """
        if not blob:
            return blob
        r = _mix(self.seed, 0x02, source, dest, index)
        if truncate:
            return bytes(blob[: r % len(blob)])
        damaged = bytearray(blob)
        pos = r % len(damaged)
        flip = 1 + (_mix(self.seed, 0x03, source, dest, index) % 255)
        damaged[pos] ^= flip
        return bytes(damaged)

    # ------------------------------------------------------------------ #
    @classmethod
    def chaos(
        cls, seed: int, n_ranks: int, intensity: float = 0.05
    ) -> "FaultPlan":
        """A mixed plan derived entirely from the seed: moderate drop and
        corruption rates, one straggler rank, one degraded link."""
        if n_ranks < 2:
            raise ValueError("chaos plans need at least 2 ranks")
        straggler = _mix(seed, 0x10) % n_ranks
        src = _mix(seed, 0x11) % n_ranks
        dst = (src + 1 + _mix(seed, 0x12) % (n_ranks - 1)) % n_ranks
        return cls(
            seed=seed,
            drop_rate=intensity,
            corrupt_rate=intensity,
            truncate_rate=intensity / 4,
            duplicate_rate=intensity / 4,
            stragglers=(straggler,),
            straggler_factor=4.0,
            degraded_links=((src, dst, 0.5),),
        )

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for name, value in (
            ("drop", self.drop_rate),
            ("corrupt", self.corrupt_rate),
            ("truncate", self.truncate_rate),
            ("duplicate", self.duplicate_rate),
        ):
            if value:
                parts.append(f"{name}={value:g}")
        if self.stragglers:
            parts.append(
                f"stragglers={list(self.stragglers)}×{self.straggler_factor:g}"
            )
        if self.degraded_links:
            parts.append(f"degraded_links={list(self.degraded_links)}")
        return "FaultPlan(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + bounded exponential backoff for retransmissions.

    ``timeout_s`` is how long a receiver waits before declaring a message
    lost; retransmission ``k`` (0-based) is delayed by
    ``min(base_delay_s · backoff^k, max_delay_s)``.  ``max_attempts`` caps
    total transmissions of one message; a compressed stream that fails
    every attempt is unrecoverable (the collective degrades to plain).
    """

    timeout_s: float = 100e-6
    base_delay_s: float = 10e-6
    backoff: float = 2.0
    max_delay_s: float = 1e-3
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.timeout_s < 0 or self.base_delay_s < 0:
            raise ValueError("retry delays must be >= 0")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_delay_s < self.base_delay_s:
            # legal (delay() clamps every retransmission to max_delay_s)
            # but almost certainly a swapped-argument mistake
            warnings.warn(
                f"max_delay_s ({self.max_delay_s:g}) < base_delay_s "
                f"({self.base_delay_s:g}): every backoff delay will clamp "
                f"to max_delay_s",
                stacklevel=3,
            )

    def max_transfer_wait_s(self) -> float:
        """Upper bound on one delivery's total timeout + backoff wait.

        Every attempt waits at most ``timeout_s`` before declaring loss and
        at most ``max_delay_s`` before retransmitting, so ``max_attempts``
        transmissions can never wait longer than this — the bound the
        multi-process data plane derives its *real* receive deadlines from.
        """
        return self.max_attempts * (self.timeout_s + self.max_delay_s)

    def delay(self, attempt: int) -> float:
        """Backoff delay before retransmission ``attempt`` (0-based)."""
        if self.base_delay_s == 0.0:
            return 0.0
        try:
            raw = self.base_delay_s * self.backoff**attempt
        except OverflowError:
            # backoff**attempt exceeded float range: the clamp would have
            # won anyway, so apply it instead of blowing up the retry loop
            return self.max_delay_s
        return min(raw, self.max_delay_s)


@dataclass
class FaultStats:
    """Counters for one channel's (or communicator's) fault history."""

    messages: int = 0
    drops: int = 0
    corruptions: int = 0
    truncations: int = 0
    duplicates: int = 0
    timeouts: int = 0
    retransmissions: int = 0
    forced_deliveries: int = 0
    degraded_ops: int = 0
    retry_seconds: float = 0.0

    @property
    def total_faults(self) -> int:
        return self.drops + self.corruptions + self.truncations + self.duplicates

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def merge(self, other: "FaultStats") -> "FaultStats":
        for f in dataclass_fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


class UnrecoverableStreamError(RuntimeError):
    """Raised when every transmission attempt of a compressed stream failed.

    The collective catching this must degrade to its plain kernel — it is
    a *control-flow* signal, never an answer.
    """

    def __init__(self, source: int, dest: int, attempts: int) -> None:
        super().__init__(
            f"compressed stream {source}→{dest} undeliverable after "
            f"{attempts} attempts"
        )
        self.source = source
        self.dest = dest
        self.attempts = attempts


class Delivery(NamedTuple):
    """Outcome of one (possibly retransmitted) delivery.

    ``nbytes`` counts the bytes this delivery put on the wire *through the
    channel* — with ``charge_base=False`` only the retransmissions, since
    the caller charged the scheduled transfer itself.
    """

    payload: Any
    nbytes: int
    attempts: int = 1


#: the :meth:`ResilientChannel.attempts` verdicts that put a damaged copy
#: on the wire
DAMAGE_VERDICTS = ("CORRUPT", "TRUNCATE")


def parse_stream(blob: bytes):
    """A receiver's validation of one compressed stream: the wire format's
    checksummed parse, ``None`` when it rejects the bytes."""
    try:
        return from_bytes(blob)
    except (ValueError, OverflowError):
        return None


class ResilientChannel:
    """Fault-aware delivery layer bound to one :class:`SimCluster`.

    Per-link message indices live here (the plan itself is pure), as do the
    accumulated :class:`FaultStats`, so a multi-stage collective (e.g.
    Reduce_scatter → Allgather) sees one continuous fault sequence.
    """

    def __init__(self, cluster: "SimCluster") -> None:
        self.cluster = cluster
        self.stats = FaultStats()
        self._link_index: dict[tuple[int, int], int] = {}

    @property
    def plan(self) -> FaultPlan | None:
        return self.cluster.faults

    @property
    def retry(self) -> RetryPolicy:
        return self.cluster.retry

    # ------------------------------------------------------------------ #
    def _next_index(self, source: int, dest: int) -> int:
        key = (source, dest)
        idx = self._link_index.get(key, 0)
        self._link_index[key] = idx + 1
        return idx

    def _wait(self, rank: int, seconds: float, label: str) -> None:
        self.stats.retry_seconds += seconds
        if METRICS.enabled:
            METRICS.inc("channel.retries")
        self.cluster.charge_wait(rank, seconds, label)

    def charge_link(
        self,
        source: int,
        dest: int,
        nbytes: int,
        n_flows: int | None = None,
        link_scale: float = 1.0,
    ) -> float:
        """Charge one scheduled transfer, honouring link degradation.

        ``n_flows``/``link_scale`` carry the surrounding round's declared
        concurrency and link speed into the congestion law (see
        :meth:`SimCluster.charge_comm`).
        """
        plan = self.cluster.faults
        factor = 1.0 if plan is None else plan.bandwidth_factor(source, dest)
        return self.cluster.charge_comm(
            dest,
            nbytes,
            bandwidth_factor=factor,
            n_flows=n_flows,
            link_scale=link_scale,
        )

    # ------------------------------------------------------------------ #
    def attempts(
        self, source: int, dest: int, reliable: bool
    ) -> Iterator[tuple[int, int, str, bool]]:
        """The attempt walk of one message on ``source → dest``.

        Yields ``(attempt, link index, verdict, duplicate)`` per
        transmission, consuming one per-link fault index each: ``"DROP"``
        (nothing arrives), ``"CORRUPT"`` / ``"TRUNCATE"`` (a damaged copy
        arrives) or ``"OK"``, plus whether an extra wire copy rides along.
        The consumer stops iterating once an attempt is accepted.  When
        ``max_attempts`` are spent a ``reliable`` (plain) message escalates
        to one last ``"FORCED"`` delivery; any other raises
        :class:`UnrecoverableStreamError`.  Every fault counter is kept
        here, so whoever walks — the simulated channel charging virtual
        time, the multi-process sender emitting frames — counts alike.
        """
        plan, policy, stats = self.plan, self.retry, self.stats
        for attempt in range(policy.max_attempts):
            index = self._next_index(source, dest)
            decision = plan.decide(source, dest, index)
            if attempt:
                stats.retransmissions += 1
            verdict = "OK"
            if decision.drop:
                stats.drops += 1
                stats.timeouts += 1
                verdict = "DROP"
            elif decision.truncate:
                stats.truncations += 1
                verdict = "TRUNCATE"
            elif decision.corrupt:
                stats.corruptions += 1
                verdict = "CORRUPT"
            if decision.duplicate:
                stats.duplicates += 1
            yield attempt, index, verdict, decision.duplicate
        if not reliable:
            raise UnrecoverableStreamError(source, dest, policy.max_attempts)
        # Reliable floor: the transport escalates (think a slow verified
        # path) and the payload arrives after one final penalty — plain
        # delivery must terminate, never raise.
        stats.retransmissions += 1
        stats.forced_deliveries += 1
        yield policy.max_attempts, -1, "FORCED", False

    def damage(
        self, blob: bytes, source: int, dest: int, index: int, verdict: str
    ) -> bytes:
        """The bytes a ``CORRUPT`` / ``TRUNCATE`` attempt puts on the wire
        (``blob`` itself only when it is empty: nothing there to change)."""
        return self.plan.corrupt_stream(
            blob, source, dest, index, truncate=verdict == "TRUNCATE"
        )

    def _deliver(
        self, source, dest, payload, nbytes, stream, charge_base, n_flows, link_scale
    ) -> Delivery:
        """Walk one message, charging virtual time per attempt.

        ``stream`` is ``None`` on the plain path.  The two paths differ in
        three places only: the base-charge rule (``charge_base``), what
        damaged means (the plain transport's checksum always catches it; a
        compressed stream is damaged byte for byte and must fail the wire
        format's validation), and exhaustion (``reliable``).
        """
        self.stats.messages += 1
        cluster = self.cluster
        if cluster.faults is None:  # healthy fabric: no walk to take
            if charge_base:
                cluster.charge_comm(
                    dest, nbytes, n_flows=n_flows, link_scale=link_scale
                )
            return Delivery(payload, nbytes if charge_base else 0)
        policy = self.retry
        charged = 0

        def charge() -> None:
            nonlocal charged
            self.charge_link(source, dest, nbytes, n_flows, link_scale)
            charged += nbytes

        for attempt, index, verdict, duplicate in self.attempts(
            source, dest, reliable=stream is None
        ):
            if verdict == "DROP":
                cluster.record_fault(dest, "DROP", nbytes=nbytes)
                self._wait(dest, policy.timeout_s + policy.delay(attempt), "TIMEOUT")
                continue
            if verdict == "FORCED":
                self._wait(dest, policy.timeout_s, "TIMEOUT")
            if charge_base or attempt > 0:
                charge()
            if verdict in DAMAGE_VERDICTS:
                cluster.record_fault(dest, verdict, nbytes=nbytes)
                rejected = stream is None
                if not rejected:
                    blob = stream.to_bytes()
                    damaged = self.damage(blob, source, dest, index, verdict)
                    # the checksummed parse does the rejecting; bytes that
                    # parsed yet differ would be a checksum collision —
                    # nothing but the intact stream is ever accepted
                    rejected = parse_stream(damaged) is None or damaged != blob
                if rejected:
                    self._wait(
                        dest,
                        cluster.network.latency_s + policy.delay(attempt),
                        "RETRY",
                    )
                    continue
            if duplicate:
                cluster.record_fault(dest, "DUPLICATE", nbytes=nbytes)
                charge()
            return Delivery(payload, charged, attempt + 1)

    def deliver_plain(
        self,
        source: int,
        dest: int,
        payload: Any,
        nbytes: int,
        n_flows: int | None = None,
        link_scale: float = 1.0,
    ) -> Delivery:
        """Deliver over the reliable (checksummed, retrying) plain path.

        Faults cost virtual time and show up in the stats/trace, but the
        payload always arrives intact — plain delivery is the floor the
        compressed paths degrade to, so it can never fail itself.
        """
        return self._deliver(
            source, dest, payload, nbytes, None, True, n_flows, link_scale
        )

    def deliver_compressed(
        self,
        source: int,
        dest: int,
        stream,
        charge_base: bool = True,
        n_flows: int | None = None,
        link_scale: float = 1.0,
    ) -> Delivery:
        """Deliver a :class:`CompressedField`, validating the byte stream.

        Corruption is injected on the *serialised* bytes and detected by the
        wire format's checksum on decode, exactly as a real receiver would
        see it.  Each failure costs a NACK round-trip plus backoff; after
        ``max_attempts`` failures the stream is declared unrecoverable and
        :class:`UnrecoverableStreamError` is raised for the collective to
        degrade on.

        With ``charge_base=False`` the caller has already charged the
        scheduled transfer (aggregate-message schedules like Rabenseifner's
        bundles or the broadcast tree); the channel then charges only the
        fault handling (timeouts, retransmissions).
        """
        return self._deliver(
            source, dest, stream, stream.nbytes, stream, charge_base,
            n_flows, link_scale,
        )

    # ------------------------------------------------------------------ #
    def degrade(self, reason: str = "stream-unrecoverable") -> None:
        """Record that the running collective fell back to the plain kernel."""
        self.stats.degraded_ops += 1
        if METRICS.enabled:
            METRICS.inc("channel.degrades")
        self.cluster.record_fault(-1, "DEGRADE")
