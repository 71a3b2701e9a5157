"""Byte transport for the multi-process data plane.

This module is *pure transport*: fixed-header frames moved between OS
processes over socket channels, with **real** wall-clock deadlines on
every blocking operation, the one serialiser that turns wire items into
frame payloads, and the long-lived sender threads that drain frames into
channels — each frame is first tried inline, with one non-blocking
``sendmsg`` toward an idle destination, and a thread takes only what the
socket did not.  What a frame *means* (fault injection, retransmission
accounting, codec actions) lives in :mod:`repro.schedule.mp_executor`;
process lifecycle lives in :mod:`repro.runtime.mp_cluster`.

The channel
-----------
:class:`SocketChannel` is one end of a ``socket.socketpair()`` (AF_UNIX
stream): one pair per directed rank pair, inherited across ``fork``, and
one per worker for its control link to the parent.  Every call is tried
with ``MSG_DONTWAIT`` and, when it would block, waits in ``poll(2)``:
in short slices when a ``poll`` callback (the abort path) must run
between them, otherwise in one wait to the deadline — no deadline at all
when it is infinite.  A passed deadline raises :class:`MPTimeoutError`.
The send buffer is sized for a whole frame, so a writer rarely waits on
its reader.

Frames
------
``RPMP`` magic + kind + flags + attempt + scheduled-nbytes + length,
then the payload bytes.  ``nbytes`` carries the *logical* payload size
(``ndarray.nbytes`` / ``CompressedField.nbytes``) — the number the
simulator's wire accounting uses — which is deliberately independent of
the serialised length, so the data plane reproduces ``bytes_on_wire``
bit-for-bit regardless of serialisation overhead.

A frame's payload is one bytes-like object or a list of them, written
back to back without being joined (one gathering ``sendmsg``).  A
received frame's payload is one
``memoryview`` over a fresh, page-aligned buffer that the
whole body is read into.

Payloads are either the wire items of :func:`dump_items` (plain
deliveries, bundles, jobs and results) or the raw checksummed
``CompressedField.to_bytes()`` stream (compressed deliveries) so that
injected byte damage is detected by the same wire-format CRC a real
receiver would use.

Serialisation
-------------
:func:`dump_items` pickles with protocol 5 and a ``buffer_callback``:
every ndarray — the arrays inside a ``CompressedField`` and its layout
included — leaves the pickle as an out-of-band segment, so the pickle
itself is a small metadata record.  Body layout::

    count u32 · meta_len u32 · count × u64 segment length · metadata pickle
    · pad · segment 0 · pad · segment 1 ...

Every segment starts at a multiple of :data:`ALIGN` from the start of
the body, so in an aligned receive buffer every rebuilt array is
aligned, and :func:`load_items` rebuilds each one as a writable view of
its segment — no copy after the read.
"""

from __future__ import annotations

import copyreg
import io
import math
import mmap
import pickle
import queue
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "ALIGN",
    "FRAME_DATA",
    "FRAME_FORCED",
    "FRAME_FAIL",
    "FRAME_RAW",
    "FRAME_JOB",
    "FRAME_ABORT",
    "FRAME_STOP",
    "FLAG_DUPLICATE",
    "FLAG_DAMAGED",
    "FLAG_COMPRESSED",
    "Frame",
    "MPChannelError",
    "MPTimeoutError",
    "MPAbortedError",
    "SenderPool",
    "SocketChannel",
    "frame_buffers",
    "send_frame",
    "recv_frame",
    "dump_items",
    "load_items",
]

_MAGIC = b"RPMP"
#: magic(4) · kind(u8) · flags(u8) · attempt(u16) · nbytes(u64) · length(u64)
_HEADER = struct.Struct("<4sBBHQQ")

#: frame kinds
FRAME_DATA = 1    # one transmission attempt's payload
FRAME_FORCED = 2  # plain path's escalated delivery after max_attempts
FRAME_FAIL = 3    # compressed stream unrecoverable; no payload
FRAME_RAW = 4     # unmanaged transfer (no fault machinery)
FRAME_JOB = 5     # control plane: a rank's job, or its reply
FRAME_ABORT = 6   # control plane: abandon the running job
FRAME_STOP = 7    # control plane: leave the job loop

#: frame flags
FLAG_DUPLICATE = 1  # extra wire copy; receiver counts and discards
FLAG_DAMAGED = 2    # sender injected byte damage; fails validation
FLAG_COMPRESSED = 4  # payload is a CompressedField.to_bytes() stream

#: byte alignment of every out-of-band segment within a frame body
#: (receive buffers start on a page, see ``_aligned_buffer``)
ALIGN = 64
_PAGE = mmap.PAGESIZE

#: most buffers handed to one ``sendmsg`` (POSIX guarantees 16, Linux 1024)
_IOV_BATCH = 512
#: socket send buffer asked for: room for a whole job or block frame, so a
#: send completes without waiting on the reader (the kernel caps it at
#: ``net.core.wmem_max``)
_SOCKET_SNDBUF = 1 << 22
_ZEROS = memoryview(bytes(ALIGN))
#: out-of-band body prefix: segment count, metadata pickle length
_ITEMS = struct.Struct("<II")


class MPChannelError(RuntimeError):
    """Transport-level failure on a multi-process channel."""


class MPTimeoutError(MPChannelError):
    """A blocking channel operation exceeded its real wall-clock deadline.

    This is the data plane's *fail-clean* signal: a dead or wedged peer
    turns into this exception at the waiting rank, never into a hang.
    """

    def __init__(self, what: str, waited_s: float) -> None:
        super().__init__(
            f"{what} exceeded its real deadline after {waited_s:.3f}s"
        )
        self.waited_s = waited_s


class MPAbortedError(MPChannelError):
    """The control plane told this rank to abandon the running schedule."""


@dataclass(frozen=True)
class Frame:
    """One framed message: metadata header + opaque payload.

    ``payload`` is one bytes-like object or a list of them (what
    :func:`dump_items` returns); a received frame always carries one
    ``memoryview`` over an aligned buffer.
    """

    kind: int
    flags: int = 0
    attempt: int = 0
    nbytes: int = 0  # scheduled *logical* payload size (wire accounting)
    payload: Any = b""


def _aligned_buffer(n: int) -> np.ndarray:
    """``n`` fresh bytes starting on a page, hence an :data:`ALIGN`, boundary.

    A page, not just 64 bytes: a plain fold of a received 256 KB block
    with a fresh sum array measured 114 µs per call with buffers starting
    64 bytes into a page and 51 µs page-aligned (2-vCPU Xeon VM).
    """
    raw = np.empty(n + _PAGE, dtype=np.uint8)
    start = -raw.__array_interface__["data"][0] % _PAGE
    return raw[start:start + n]


class SocketChannel:
    """One end of a stream socket pair, with deadline-bounded sliced waits."""

    #: longest single wait in poll(2); keeps abort polling responsive
    _SLICE_MS = 20

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SOCKET_SNDBUF)
        self._readable = select.poll()
        self._readable.register(sock.fileno(), select.POLLIN)
        self._writable = select.poll()
        self._writable.register(sock.fileno(), select.POLLOUT)

    def _wait(
        self, poller, what: str, start: float, deadline: float, poll
    ) -> None:
        """Block until ``poller`` fires; ``start`` is when the calling send
        or receive began.  A ``poll`` callback runs between slices."""
        while True:
            if poll is not None:
                poll()
            now = time.monotonic()
            left = deadline - now
            if left <= 0:
                raise MPTimeoutError(what, waited_s=now - start)
            ms = None if left == math.inf else int(left * 1e3) + 1
            if poll is not None:
                ms = min(self._SLICE_MS, ms or self._SLICE_MS)
            if poller.poll(ms):
                return

    def readable(self) -> bool:
        """Whether a read would not block: data waits, or the peer is gone."""
        return bool(self._readable.poll(0))

    def send_once(self, buffers: Sequence[Any]) -> list:
        """One non-blocking gathering ``sendmsg`` of ``buffers``, in order.

        Returns what is left unsent (empty when all of it went); raises
        ``BlockingIOError`` when the socket takes nothing.
        """
        views = [memoryview(b).cast("B") for b in buffers]
        views = [v for v in views if v.nbytes]
        if not views:
            return views
        try:
            sent = self.sock.sendmsg(views[:_IOV_BATCH], (), socket.MSG_DONTWAIT)
        except BlockingIOError:
            raise
        except OSError as exc:
            raise MPChannelError(f"socket write failed: {exc}") from exc
        i = 0
        while sent:
            n = views[i].nbytes
            if sent < n:
                views[i] = views[i][sent:]
                break
            sent -= n
            i += 1
        return views[i:]

    def send_buffers(
        self,
        buffers: Sequence[Any],
        deadline: float,
        poll: Callable[[], None] | None = None,
    ) -> None:
        """Write every buffer fully, in order, with gathering ``sendmsg``."""
        start = time.monotonic()
        while buffers:
            try:
                buffers = self.send_once(buffers)
            except BlockingIOError:
                self._wait(
                    self._writable, "socket write", start, deadline, poll
                )

    def recv_into(
        self,
        out: memoryview,
        deadline: float,
        poll: Callable[[], None] | None = None,
    ) -> None:
        """Fill ``out`` exactly."""
        start = time.monotonic()
        n = out.nbytes
        got = 0
        while got < n:
            try:
                k = self.sock.recv_into(out[got:], n - got, socket.MSG_DONTWAIT)
            except BlockingIOError:
                self._wait(
                    self._readable, "socket read", start, deadline, poll
                )
                continue
            except OSError as exc:
                raise MPChannelError(f"socket read failed: {exc}") from exc
            if not k:
                raise MPChannelError("peer closed the socket mid-frame")
            got += k

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - teardown race
            pass


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #
def frame_buffers(frame: Frame) -> list:
    """``frame`` as it goes on a channel: header, then the payload parts."""
    parts = frame.payload
    if not isinstance(parts, list):
        parts = [parts]
    header = _HEADER.pack(
        _MAGIC,
        frame.kind,
        frame.flags,
        frame.attempt,
        frame.nbytes,
        sum(memoryview(p).nbytes for p in parts),
    )
    return [header, *parts]


def send_frame(
    channel,
    frame: Frame,
    deadline: float,
    poll: Callable[[], None] | None = None,
) -> None:
    channel.send_buffers(frame_buffers(frame), deadline, poll)


def recv_frame(
    channel,
    deadline: float,
    poll: Callable[[], None] | None = None,
) -> Frame:
    """The next frame, its body read into one fresh aligned buffer."""
    raw = bytearray(_HEADER.size)
    channel.recv_into(memoryview(raw), deadline, poll)
    magic, kind, flags, attempt, nbytes, length = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise MPChannelError(
            f"bad frame magic {magic!r}: channel desynchronised"
        )
    body = memoryview(_aligned_buffer(length))
    if length:
        channel.recv_into(body, deadline, poll)
    return Frame(kind, flags, attempt, nbytes, body)


# --------------------------------------------------------------------- #
# payload serialisation
# --------------------------------------------------------------------- #
def _rebuild_array(segment, dtype, shape, order):
    # ``segment`` is the receiver's own writable byte array, or — when the
    # source array was read-only — the read-only memoryview pickle wraps
    # around it; either way the array is a writable view of that segment
    if isinstance(segment, memoryview):
        segment = segment.obj
    return segment.view(dtype).reshape(shape, order=order)


def _reduce_array(a: np.ndarray):
    if a.dtype.hasobject or not a.dtype.itemsize:
        return a.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    if a.flags.c_contiguous:
        order = "C"
    elif a.flags.f_contiguous:
        order = "F"
    else:
        a, order = np.ascontiguousarray(a), "C"
    return _rebuild_array, (pickle.PickleBuffer(a), a.dtype, a.shape, order)


class _Pickler(pickle.Pickler):
    # a per-pickler table, so only ndarrays pay a Python-level call
    dispatch_table = {**copyreg.dispatch_table, np.ndarray: _reduce_array}


def dump_items(items: Sequence[Any]) -> list:
    """Serialise a tuple of wire items into frame payload parts.

    The parts are the body of the module doc's layout: the prefix and the
    metadata pickle, then each array's bytes — the arrays' own memory, not
    a copy — at :data:`ALIGN`-byte offsets.
    """
    segments: list[pickle.PickleBuffer] = []
    meta = io.BytesIO()
    _Pickler(meta, protocol=5, buffer_callback=segments.append).dump(
        tuple(items)
    )
    raws = [s.raw() for s in segments]
    meta_view = meta.getbuffer()
    head = _ITEMS.pack(len(raws), meta_view.nbytes) + struct.pack(
        f"<{len(raws)}Q", *(r.nbytes for r in raws)
    )
    parts = [head, meta_view]
    pos = len(head) + meta_view.nbytes
    for raw in raws:
        pad = -pos % ALIGN
        if pad:
            parts.append(_ZEROS[:pad])
        parts.append(raw)
        pos += pad + raw.nbytes
    return parts


def load_items(body) -> tuple[Any, ...]:
    """Inverse of :func:`dump_items` over one received frame body.

    Arrays come back as writable views of ``body`` (writable as far as
    ``body`` is), aligned wherever ``body`` starts on an :data:`ALIGN`
    boundary — which every body :func:`recv_frame` returns does.
    """
    data = np.frombuffer(body, dtype=np.uint8)
    count, meta_len = _ITEMS.unpack_from(data)
    pos = _ITEMS.size + 8 * count
    lengths = struct.unpack_from(f"<{count}Q", data, _ITEMS.size)
    meta = data[pos:pos + meta_len]
    pos += meta_len
    segments = []
    for n in lengths:
        pos += -pos % ALIGN
        segments.append(data[pos:pos + n])
        pos += n
    return pickle.loads(meta, buffers=segments)


# --------------------------------------------------------------------- #
# per-destination sender threads
# --------------------------------------------------------------------- #
class SenderPool:
    """One long-lived writer thread per destination rank.

    A worker starts its pool once.  The main thread is the only producer:
    it first tries each frame inline — one non-blocking ``sendmsg`` when
    nothing is queued or in flight toward that destination and its
    sender has not failed — and enqueues only what the socket did not
    take; each thread drains its queue into that destination's channel.
    Since a frame goes inline only behind an idle queue, the bytes toward
    one destination stay in order, and since the inline try never blocks,
    a full socket toward one slow receiver can never delay frames bound
    for another rank — the property that makes arbitrary schedules
    deadlock-free.  A job ends in :meth:`flush` (every queue joined) or
    :meth:`abort` (what is still queued is dropped, then every queue
    joined), so the threads outlive the job and the queues are empty
    when the next one starts.
    """

    def __init__(self, channels: dict[int, Any]) -> None:
        #: real deadline of one frame write; the job in hand sets it
        self.deadline_s = 10.0
        self._abort = threading.Event()
        self._failures: dict[int, str] = {}
        self._channels = channels
        self._queues: dict[int, queue.Queue] = {}
        self._threads: list[threading.Thread] = []
        for dst, channel in channels.items():
            q: queue.Queue = queue.Queue()
            t = threading.Thread(
                target=self._drain,
                args=(dst, channel, q),
                name=f"repro-mp-send-{dst}",
                daemon=True,
            )
            self._queues[dst] = q
            self._threads.append(t)
            t.start()

    def _poll(self) -> None:
        if self._abort.is_set():
            raise MPAbortedError("sender pool aborted")

    def _drain(self, dst: int, channel, q: queue.Queue) -> None:
        while True:
            buffers = q.get()
            try:
                if buffers is None:
                    return
                # an aborted job's leftovers, or frames behind a broken link
                if self._abort.is_set() or dst in self._failures:
                    continue
                channel.send_buffers(
                    buffers, time.monotonic() + self.deadline_s, self._poll
                )
            except MPAbortedError:
                pass
            except Exception as exc:  # surfaced by flush()
                self._failures[dst] = f"{type(exc).__name__}: {exc}"
            finally:
                q.task_done()

    # ------------------------------------------------------------------ #
    def put_frame(self, dst: int, frame: Frame) -> None:
        buffers = frame_buffers(frame)
        q = self._queues[dst]
        # ``unfinished_tasks`` counts queued and in-flight frames; only
        # this thread raises it, so a 0 read here stays 0 until the put
        if not q.unfinished_tasks and dst not in self._failures:
            try:
                buffers = self._channels[dst].send_once(buffers)
            except BlockingIOError:
                pass
            except MPChannelError as exc:  # surfaced by flush()
                self._failures[dst] = f"{type(exc).__name__}: {exc}"
                return
            if not buffers:
                return
        q.put(buffers)

    def flush(self) -> None:
        """Block until every queued frame is on the wire; raise on failure."""
        for q in self._queues.values():
            q.join()
        if self._failures:
            detail = "; ".join(
                f"→{dst}: {msg}" for dst, msg in sorted(self._failures.items())
            )
            raise RuntimeError(f"sender threads failed: {detail}")

    def abort(self) -> None:
        """Drop what is queued and reset for the next job."""
        self._abort.set()
        for q in self._queues.values():
            q.join()
        self._abort.clear()
        self._failures.clear()

    def close(self) -> None:
        """Stop the threads (after :meth:`flush` or :meth:`abort`)."""
        for q in self._queues.values():
            q.put(None)
        for t in self._threads:
            t.join(timeout=2.0)
