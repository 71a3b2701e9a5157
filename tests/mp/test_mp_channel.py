"""Transport-layer tests: rings, sockets, framing, deadlines."""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

from repro.runtime.mp_channel import (
    FLAG_COMPRESSED,
    FRAME_DATA,
    Frame,
    MPAbortedError,
    MPChannelError,
    MPTimeoutError,
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
        import numpy as np

        items = (np.arange(5, dtype=np.float32), np.zeros(3))
        out = load_items(dump_items(items))
        assert len(out) == 2
        assert np.array_equal(out[0], items[0])


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
