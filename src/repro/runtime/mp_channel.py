"""Byte transport for the multi-process data plane.

This module is *pure transport*: fixed-header frames moved between OS
processes over one of two interchangeable channel kinds, with **real**
wall-clock deadlines on every blocking operation.  What a frame *means*
(fault injection, retransmission accounting, codec actions) lives in
:mod:`repro.schedule.mp_executor`; process lifecycle lives in
:mod:`repro.runtime.mp_cluster`.

Channel kinds
-------------
* :class:`ShmRing` — a single-producer/single-consumer byte ring in one
  ``multiprocessing.shared_memory`` segment per directed rank pair.
  Layout: ``head`` (u64, written only by the reader) · ``tail`` (u64,
  written only by the writer) · ``capacity`` data bytes.  Cursors are
  monotonic (position = cursor mod capacity), so full/empty are never
  ambiguous and each side mutates exactly one cursor — the classic SPSC
  discipline that needs no lock.  Both cursors live in one aligned
  ``np.uint64`` view, so each publish is a single 8-byte store the peer
  can never see half-written (``struct.pack_into`` zero-fills and then
  writes byte by byte); the only ordering the protocol needs is "payload
  bytes before the tail store".  Writers and readers spin-sleep with an
  exponentially backed-off poll (≤ ~1 ms) until space/data appears, the
  deadline expires (:class:`MPTimeoutError`) or the supplied ``poll``
  callback raises (the abort path).
* :class:`SocketChannel` — the fallback when shared memory is undesired:
  one ``socket.socketpair()`` (AF_UNIX stream) per directed pair,
  inherited across ``fork``.  Same deadline/poll semantics via short
  ``settimeout`` slices.

Frames
------
``RPMP`` magic + kind + flags + attempt + scheduled-nbytes + length,
then the payload bytes.  ``nbytes`` carries the *logical* payload size
(``ndarray.nbytes`` / ``CompressedField.nbytes``) — the number the
simulator's wire accounting uses — which is deliberately independent of
the serialised length, so the data plane reproduces ``bytes_on_wire``
bit-for-bit regardless of serialisation overhead.

Payloads are either a pickled tuple of wire items (plain deliveries,
bundles) or the raw checksummed ``CompressedField.to_bytes()`` stream
(compressed deliveries) so that injected byte damage is detected by the
same wire-format CRC a real receiver would use.
"""

from __future__ import annotations

import pickle
import struct
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "FRAME_DATA",
    "FRAME_FORCED",
    "FRAME_FAIL",
    "FRAME_RAW",
    "FLAG_DUPLICATE",
    "FLAG_DAMAGED",
    "FLAG_COMPRESSED",
    "Frame",
    "MPChannelError",
    "MPTimeoutError",
    "MPAbortedError",
    "ShmRing",
    "SocketChannel",
    "frame_bytes",
    "send_frame",
    "recv_frame",
    "dump_items",
    "load_items",
]

_MAGIC = b"RPMP"
#: magic(4) · kind(u8) · flags(u8) · attempt(u16) · nbytes(u64) · length(u64)
_HEADER = struct.Struct("<4sBBHQQ")
_DATA_OFFSET = 16  # two u64 cursors

#: frame kinds
FRAME_DATA = 1    # one transmission attempt's payload
FRAME_FORCED = 2  # plain path's escalated delivery after max_attempts
FRAME_FAIL = 3    # compressed stream unrecoverable; no payload
FRAME_RAW = 4     # unmanaged transfer (no fault machinery)

#: frame flags
FLAG_DUPLICATE = 1  # extra wire copy; receiver counts and discards
FLAG_DAMAGED = 2    # sender injected byte damage; fails validation
FLAG_COMPRESSED = 4  # payload is a CompressedField.to_bytes() stream

_POLL_MIN_S = 50e-6
_POLL_MAX_S = 2e-3


class MPChannelError(RuntimeError):
    """Transport-level failure on a multi-process channel."""


class MPTimeoutError(MPChannelError):
    """A blocking channel operation exceeded its real wall-clock deadline.

    This is the data plane's *fail-clean* signal: a dead or wedged peer
    turns into this exception at the waiting rank, never into a hang.
    """

    def __init__(self, what: str, waited_s: float) -> None:
        super().__init__(
            f"{what} exceeded its {waited_s:.3f}s real deadline"
        )
        self.waited_s = waited_s


class MPAbortedError(MPChannelError):
    """The control plane told this rank to abandon the running schedule."""


@dataclass(frozen=True)
class Frame:
    """One framed message: metadata header + opaque payload bytes."""

    kind: int
    flags: int = 0
    attempt: int = 0
    nbytes: int = 0  # scheduled *logical* payload size (wire accounting)
    payload: bytes = b""


def _sleep_poll(waited: int) -> float:
    """Exponentially backed-off poll interval for spin loops."""
    return min(_POLL_MIN_S * (1 << min(waited, 6)), _POLL_MAX_S)


class ShmRing:
    """SPSC byte ring over one shared-memory segment (see module doc)."""

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int) -> None:
        self.shm = shm
        self.capacity = capacity
        #: [head, tail] — each load/store is one aligned 8-byte access
        self._cursors = np.frombuffer(shm.buf, dtype=np.uint64, count=2)

    @classmethod
    def create(cls, name: str, capacity: int) -> "ShmRing":
        if capacity < 64:
            raise ValueError("ring capacity must be >= 64 bytes")
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_DATA_OFFSET + capacity
        )
        shm.buf[:_DATA_OFFSET] = b"\x00" * _DATA_OFFSET
        return cls(shm, capacity)

    # ------------------------------------------------------------------ #
    def _head(self) -> int:
        return int(self._cursors[0])

    def _tail(self) -> int:
        return int(self._cursors[1])

    def send_bytes(
        self,
        data: bytes,
        deadline: float,
        poll: Callable[[], None] | None = None,
    ) -> None:
        """Write ``data`` fully, spinning while the ring is full."""
        mv = memoryview(data)
        buf = self.shm.buf
        cap = self.capacity
        waited = 0
        while mv.nbytes:
            free = cap - (self._tail() - self._head())
            # no portable fence on weaker memory models: an incoherent
            # cursor pair is re-read like a full ring, never trusted
            if not 0 < free <= cap:
                if poll is not None:
                    poll()
                now = time.monotonic()
                if now >= deadline:
                    raise MPTimeoutError("shm ring write", waited_s=0.0)
                time.sleep(_sleep_poll(waited))
                waited += 1
                continue
            waited = 0
            tail = self._tail()
            n = min(mv.nbytes, free)
            pos = tail % cap
            first = min(n, cap - pos)
            buf[_DATA_OFFSET + pos:_DATA_OFFSET + pos + first] = mv[:first]
            if n > first:
                buf[_DATA_OFFSET:_DATA_OFFSET + n - first] = mv[first:n]
            self._cursors[1] = tail + n
            mv = mv[n:]

    def recv_bytes(
        self,
        n: int,
        deadline: float,
        poll: Callable[[], None] | None = None,
    ) -> bytes:
        """Read exactly ``n`` bytes, spinning while the ring is empty."""
        out = bytearray(n)
        buf = self.shm.buf
        cap = self.capacity
        got = 0
        waited = 0
        while got < n:
            avail = self._tail() - self._head()
            if not 0 < avail <= cap:  # empty, or incoherent: re-read
                if poll is not None:
                    poll()
                now = time.monotonic()
                if now >= deadline:
                    raise MPTimeoutError("shm ring read", waited_s=0.0)
                time.sleep(_sleep_poll(waited))
                waited += 1
                continue
            waited = 0
            head = self._head()
            take = min(n - got, avail)
            pos = head % cap
            first = min(take, cap - pos)
            out[got:got + first] = buf[
                _DATA_OFFSET + pos:_DATA_OFFSET + pos + first
            ]
            if take > first:
                out[got + first:got + take] = buf[
                    _DATA_OFFSET:_DATA_OFFSET + take - first
                ]
            self._cursors[0] = head + take
            got += take
        return bytes(out)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._cursors = None  # drop the buffer export before unmapping
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SocketChannel:
    """Stream-socket channel with sliced timeouts (the shm fallback)."""

    #: settimeout slice; keeps abort polling responsive without busy-wait
    _SLICE_S = 0.02

    def __init__(self, sock) -> None:
        self.sock = sock

    def send_bytes(
        self,
        data: bytes,
        deadline: float,
        poll: Callable[[], None] | None = None,
    ) -> None:
        import socket as _socket

        mv = memoryview(data)
        while mv.nbytes:
            if poll is not None:
                poll()
            if time.monotonic() >= deadline:
                raise MPTimeoutError("socket write", waited_s=0.0)
            self.sock.settimeout(self._SLICE_S)
            try:
                sent = self.sock.send(mv)
            except _socket.timeout:
                continue
            except OSError as exc:
                raise MPChannelError(f"socket write failed: {exc}") from exc
            mv = mv[sent:]

    def recv_bytes(
        self,
        n: int,
        deadline: float,
        poll: Callable[[], None] | None = None,
    ) -> bytes:
        import socket as _socket

        out = bytearray()
        while len(out) < n:
            if poll is not None:
                poll()
            if time.monotonic() >= deadline:
                raise MPTimeoutError("socket read", waited_s=0.0)
            self.sock.settimeout(self._SLICE_S)
            try:
                chunk = self.sock.recv(n - len(out))
            except _socket.timeout:
                continue
            except OSError as exc:
                raise MPChannelError(f"socket read failed: {exc}") from exc
            if not chunk:
                raise MPChannelError("peer closed the socket mid-frame")
            out += chunk
        return bytes(out)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - teardown race
            pass


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #
def frame_bytes(frame: Frame) -> bytes:
    """``frame`` as it goes on a channel: header, then payload."""
    header = _HEADER.pack(
        _MAGIC,
        frame.kind,
        frame.flags,
        frame.attempt,
        frame.nbytes,
        len(frame.payload),
    )
    return header + frame.payload


def send_frame(
    channel,
    frame: Frame,
    deadline: float,
    poll: Callable[[], None] | None = None,
) -> None:
    channel.send_bytes(frame_bytes(frame), deadline, poll)


def recv_frame(
    channel,
    deadline: float,
    poll: Callable[[], None] | None = None,
) -> Frame:
    raw = channel.recv_bytes(_HEADER.size, deadline, poll)
    magic, kind, flags, attempt, nbytes, length = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise MPChannelError(
            f"bad frame magic {magic!r}: channel desynchronised"
        )
    payload = channel.recv_bytes(length, deadline, poll) if length else b""
    return Frame(kind, flags, attempt, nbytes, payload)


# --------------------------------------------------------------------- #
# payload serialisation
# --------------------------------------------------------------------- #
def dump_items(items: Sequence[Any]) -> bytes:
    """Serialise a tuple of wire items (ndarrays / CompressedFields)."""
    return pickle.dumps(tuple(items), protocol=pickle.HIGHEST_PROTOCOL)


def load_items(blob: bytes) -> tuple[Any, ...]:
    return pickle.loads(blob)
