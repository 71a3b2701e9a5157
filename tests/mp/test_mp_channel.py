"""Transport-layer tests: rings, sockets, framing, deadlines."""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.compression.format import CompressedField
from repro.compression.fzlight import FZLight
from repro.runtime.mp_channel import (
    ALIGN,
    FLAG_COMPRESSED,
    FRAME_DATA,
    Frame,
    MPAbortedError,
    MPChannelError,
    MPTimeoutError,
    SenderPool,
    ShmRing,
    SocketChannel,
    dump_items,
    load_items,
    recv_frame,
    send_frame,
)


@pytest.fixture()
def ring():
    r = ShmRing.create("repro-test-ring", capacity=128)
    yield r
    r.close()
    r.unlink()


def _deadline(seconds: float = 2.0) -> float:
    return time.monotonic() + seconds


_TEAR_BYTES = 200_000
_TEAR_FRAMES = 300


def _tear_payload(i: int) -> bytes:
    # 5x the ring's capacity, so every frame wraps and refills it
    return bytes([i % 251]) * (300 + i % 7)


def _stream(ring: ShmRing) -> None:
    # one-byte messages: one cursor store per call on either side, both
    # sides busy, so stores and the peer's loads collide as often as the
    # protocol allows; then whole frames much larger than the ring
    for i in range(_TEAR_BYTES):
        ring.send_bytes(bytes([i % 251]), _deadline(10.0))
    for i in range(_TEAR_FRAMES):
        send_frame(
            ring, Frame(FRAME_DATA, payload=_tear_payload(i)), _deadline(10.0)
        )


class TestShmRing:
    def test_roundtrip(self, ring):
        ring.send_bytes(b"hello world", _deadline())
        assert ring.recv_bytes(11, _deadline()) == b"hello world"

    def test_wraparound(self, ring):
        # payloads cross the 128-byte boundary many times; cursors are
        # monotonic so every crossing exercises the two-part copy
        for i in range(10):
            blob = bytes([i]) * 100
            ring.send_bytes(blob, _deadline())
            assert ring.recv_bytes(100, _deadline()) == blob

    def test_payload_larger_than_capacity(self, ring):
        # a writer thread streams 1000 bytes through a 128-byte ring
        blob = bytes(range(256)) * 4  # 1024 bytes
        t = threading.Thread(
            target=ring.send_bytes, args=(blob, _deadline(5.0))
        )
        t.start()
        got = ring.recv_bytes(len(blob), _deadline(5.0))
        t.join()
        assert got == blob

    def test_read_deadline_raises(self, ring):
        with pytest.raises(MPTimeoutError):
            ring.recv_bytes(1, _deadline(0.05))

    def test_write_deadline_raises_when_full(self, ring):
        ring.send_bytes(b"x" * 128, _deadline())
        with pytest.raises(MPTimeoutError):
            ring.send_bytes(b"y", _deadline(0.05))

    def test_poll_callback_can_abort(self, ring):
        def poll():
            raise MPAbortedError("test abort")

        with pytest.raises(MPAbortedError):
            ring.recv_bytes(1, _deadline(5.0), poll)

    def test_cursors_never_tear_across_processes(self):
        # Regression (ROADMAP 3a): cursors published with struct.pack_into
        # are zero-filled then written byte-wise, so the peer process could
        # load a torn value -> negative avail / oversized free -> desync.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        ring = ShmRing.create("repro-test-ring-tear", capacity=64)
        writer = multiprocessing.get_context("fork").Process(
            target=_stream, args=(ring,)
        )
        # an observer of its own: a torn *store* is visible to any load
        cursors = np.frombuffer(ring.shm.buf, dtype=np.uint64, count=2)
        try:
            writer.start()
            last_tail = 0
            for i in range(_TEAR_BYTES):
                got = ring.recv_bytes(1, _deadline(10.0))
                assert got[0] == i % 251, f"byte {i} out of sequence"
                tail = int(cursors[1])
                assert tail >= last_tail, f"tail stepped back at byte {i}"
                last_tail = tail
            for i in range(_TEAR_FRAMES):
                frame = recv_frame(ring, _deadline(10.0))
                assert frame.payload == _tear_payload(i), f"frame {i} damaged"
            writer.join(10.0)
            assert not writer.is_alive() and writer.exitcode == 0
        finally:
            del cursors
            if writer.is_alive():
                writer.terminate()
                writer.join(5.0)
            ring.close()
            ring.unlink()

    def test_minimum_capacity_enforced(self):
        with pytest.raises(ValueError, match=">= 64"):
            ShmRing.create("repro-test-tiny", capacity=16)


class TestFraming:
    def test_frame_roundtrip(self, ring):
        frame = Frame(
            FRAME_DATA,
            flags=FLAG_COMPRESSED,
            attempt=3,
            nbytes=123456,
            payload=b"payload-bytes",
        )
        send_frame(ring, frame, _deadline())
        got = recv_frame(ring, _deadline())
        assert got == frame

    def test_empty_payload(self, ring):
        send_frame(ring, Frame(FRAME_DATA, nbytes=7), _deadline())
        got = recv_frame(ring, _deadline())
        assert got.payload == b"" and got.nbytes == 7

    def test_bad_magic_detected(self, ring):
        ring.send_bytes(b"XXXX" + b"\x00" * 20, _deadline())
        with pytest.raises(MPChannelError, match="magic"):
            recv_frame(ring, _deadline())

    def test_dump_load_items(self):
        # through a real socket pair and a real ring, not a bytes hand-off
        items = (np.arange(5, dtype=np.float32), np.zeros(3))
        for tx, rx in _channel_pairs():
            out = _round_trip(tx, rx, items)
            assert len(out) == 2
            _assert_rebuilt(items, out)


# --------------------------------------------------------------------- #
# the out-of-band serialiser, through real channels
# --------------------------------------------------------------------- #
def _channel_pairs():
    """(sender, receiver) over a socket pair, then over one shm ring."""
    a, b = socket.socketpair()
    sock = (SocketChannel(a), SocketChannel(b))
    ring = ShmRing.create(f"repro-test-ser-{os.getpid()}", capacity=1 << 12)
    try:
        yield sock
        yield ring, ring
    finally:
        for ch in sock:
            ch.close()
        ring.close()
        ring.unlink()


def _round_trip(tx, rx, items):
    """``items`` sent as one frame from a thread (frames exceed the ring)."""
    parts = dump_items(items)
    sender = threading.Thread(
        target=send_frame,
        args=(tx, Frame(FRAME_DATA, payload=parts), _deadline(10.0)),
    )
    sender.start()
    frame = recv_frame(rx, _deadline(10.0))
    sender.join()
    assert frame.payload.nbytes == sum(memoryview(p).nbytes for p in parts)
    return load_items(frame.payload)


def _arrays(src, out):
    """Pair up the arrays of two equal nested structures."""
    assert type(out) is type(src)
    if isinstance(src, np.ndarray):
        yield src, out
    elif isinstance(src, CompressedField):
        assert out.to_bytes() == src.to_bytes()
        for name in ("outliers", "code_lengths", "payload"):
            yield getattr(src, name), getattr(out, name)
        if src._layout is not None:
            assert out._layout is not None
            yield src._layout.offsets, out._layout.offsets
    elif isinstance(src, dict):
        assert out.keys() == src.keys()
        for key in src:
            yield from _arrays(src[key], out[key])
    elif isinstance(src, (tuple, list)):
        assert len(out) == len(src)
        for s, o in zip(src, out):
            yield from _arrays(s, o)
    else:
        assert out == src


def _assert_rebuilt(src, out) -> None:
    for s, o in _arrays(src, out):
        assert o.dtype == s.dtype and o.shape == s.shape
        np.testing.assert_array_equal(o, s)
        assert o.flags.aligned and o.flags.writeable
        assert not np.shares_memory(o, s)
        if o.size:
            assert o.__array_interface__["data"][0] % ALIGN == 0


def _field(seed: int = 0) -> CompressedField:
    data = np.cumsum(
        np.random.default_rng(seed).standard_normal(5000), dtype=np.float32
    )
    field = FZLight().compress(data, abs_eb=1e-3)
    assert field.layout.groups  # shipped with a built layout
    return field


def _readonly() -> np.ndarray:
    a = np.arange(7, dtype=np.float64)
    a.setflags(write=False)
    return a


_CASES = {
    # 5 / 7 / 3 / 9 elements: each segment ends off any 64-byte boundary
    "dtypes": lambda: (
        np.arange(5, dtype=np.float32),
        np.linspace(0, 1, 7),
        np.arange(-3, 0, dtype=np.int64),
        np.arange(9, dtype=np.uint8),
    ),
    "0-d and empty": lambda: (
        np.array(2.5, dtype=np.float32),
        np.array(-7, dtype=np.int64),
        np.zeros(0, dtype=np.float64),
        np.zeros((0, 3), dtype=np.uint8),
    ),
    "strided and fortran": lambda: (
        np.arange(30, dtype=np.float32)[::3],
        np.arange(24, dtype=np.int64).reshape(4, 6)[:, 1:4],
        np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4)),
    ),
    "read-only": lambda: (_readonly(),),
    "compressed field": lambda: (_field(), np.arange(3, dtype=np.uint8)),
    "nested": lambda: (
        {"a": (np.arange(3.0), [np.ones(2, np.int64), {"b": np.zeros(5)}])},
        (1, ("two", np.arange(4, dtype=np.uint8))),
    ),
    "no buffers": lambda: (1, "two", None, {"three": (4.0,)}),
}


class TestSerialiser:
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_round_trip_through_both_channels(self, case):
        for tx, rx in _channel_pairs():
            items = _CASES[case]()
            _assert_rebuilt(items, _round_trip(tx, rx, items))

    def test_received_payload_keeps_the_word_gather(self):
        from repro.kernels.numpy_backend import _word_view

        for tx, rx in _channel_pairs():
            (field,) = _round_trip(tx, rx, (_field(1),))
            assert _word_view(field.payload, field.layout) is not None

    def test_arrays_leave_without_a_copy(self):
        a = np.arange(1000, dtype=np.float64)
        parts = dump_items((a,))
        assert any(
            np.shares_memory(np.frombuffer(p, np.uint8), a)
            for p in parts
            if memoryview(p).nbytes
        )

    def test_frame_without_buffers_is_one_small_body(self):
        parts = dump_items((1, "two"))
        assert len(parts) == 2  # prefix + metadata, no segment


class TestSenderPool:
    def test_abort_drops_queued_frames_and_keeps_the_threads(self):
        # nobody reads b, so the first big frame fills the socket and the
        # rest queue up behind it
        a, b = socket.socketpair()
        pool = SenderPool({1: SocketChannel(a)})
        try:
            threads = threading.active_count()
            blob = bytes(1 << 20)
            for _ in range(8):
                pool.put_frame(1, Frame(FRAME_DATA, payload=blob))
            pool.abort()
            assert all(q.empty() for q in pool._queues.values())
            assert threading.active_count() == threads
            # the pool is usable again: once the aborted bytes are drained,
            # a fresh job's frame is delivered
            b.setblocking(False)
            try:
                while b.recv(1 << 20):
                    pass
            except BlockingIOError:
                pass
            b.setblocking(True)
            pool.put_frame(1, Frame(FRAME_DATA, nbytes=3, payload=b"abc"))
            pool.flush()
            got = recv_frame(SocketChannel(b), _deadline())
            assert got.payload == b"abc" and got.nbytes == 3
        finally:
            pool.close()
            a.close()
            b.close()


class TestSocketChannel:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        ca, cb = SocketChannel(a), SocketChannel(b)
        try:
            ca.send_bytes(b"over the wire", _deadline())
            assert cb.recv_bytes(13, _deadline()) == b"over the wire"
        finally:
            ca.close()
            cb.close()

    def test_read_deadline_raises(self):
        a, b = socket.socketpair()
        ca, cb = SocketChannel(a), SocketChannel(b)
        try:
            with pytest.raises(MPTimeoutError):
                cb.recv_bytes(1, _deadline(0.05))
        finally:
            ca.close()
            cb.close()

    def test_peer_close_raises_not_hangs(self):
        a, b = socket.socketpair()
        ca, cb = SocketChannel(a), SocketChannel(b)
        ca.close()
        try:
            with pytest.raises(MPChannelError, match="closed"):
                cb.recv_bytes(1, _deadline())
        finally:
            cb.close()
