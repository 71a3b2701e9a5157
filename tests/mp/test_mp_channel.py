"""Transport-layer tests: socket channels, framing, deadlines."""

from __future__ import annotations

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
    SocketChannel,
    dump_items,
    load_items,
    recv_frame,
    send_frame,
)


@pytest.fixture()
def pair():
    """(writer, reader): the two ends of one socket pair."""
    a, b = socket.socketpair()
    tx, rx = SocketChannel(a), SocketChannel(b)
    yield tx, rx
    tx.close()
    rx.close()


def _deadline(seconds: float = 2.0) -> float:
    return time.monotonic() + seconds


def _recv(channel: SocketChannel, n: int, deadline: float, poll=None) -> bytes:
    out = bytearray(n)
    channel.recv_into(memoryview(out), deadline, poll)
    return bytes(out)


def _oversized(channel: SocketChannel) -> bytes:
    """A payload three times the channel's socket send buffer."""
    sndbuf = channel.sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    return bytes(range(256)) * (3 * sndbuf // 256)


def _abort_after(seconds: float):
    """A ``poll`` callback that starts raising ``seconds`` from now."""
    fired = threading.Event()
    threading.Timer(seconds, fired.set).start()

    def poll() -> None:
        if fired.is_set():
            raise MPAbortedError("test abort")

    return poll


class TestFraming:
    def test_frame_roundtrip(self, pair):
        tx, rx = pair
        frame = Frame(
            FRAME_DATA,
            flags=FLAG_COMPRESSED,
            attempt=3,
            nbytes=123456,
            payload=b"payload-bytes",
        )
        send_frame(tx, frame, _deadline())
        got = recv_frame(rx, _deadline())
        assert got == frame

    def test_empty_payload(self, pair):
        tx, rx = pair
        send_frame(tx, Frame(FRAME_DATA, nbytes=7), _deadline())
        got = recv_frame(rx, _deadline())
        assert got.payload == b"" and got.nbytes == 7

    def test_bad_magic_detected(self, pair):
        tx, rx = pair
        tx.send_buffers((b"XXXX" + b"\x00" * 20,), _deadline())
        with pytest.raises(MPChannelError, match="magic"):
            recv_frame(rx, _deadline())

    def test_dump_load_items(self):
        # through a real socket pair, not a bytes hand-off
        items = (np.arange(5, dtype=np.float32), np.zeros(3))
        for tx, rx in _channel_pairs():
            out = _round_trip(tx, rx, items)
            assert len(out) == 2
            _assert_rebuilt(items, out)


# --------------------------------------------------------------------- #
# the out-of-band serialiser, through real channels
# --------------------------------------------------------------------- #
def _channel_pairs():
    """(sender, receiver) over a socket pair, the data plane's channel."""
    a, b = socket.socketpair()
    sock = (SocketChannel(a), SocketChannel(b))
    try:
        yield sock
    finally:
        for ch in sock:
            ch.close()


def _round_trip(tx, rx, items):
    """``items`` sent as one frame from a thread, read on this one."""
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
    def test_roundtrip(self, pair):
        tx, rx = pair
        tx.send_buffers((b"over ", b"the wire"), _deadline())
        assert _recv(rx, 13, _deadline()) == b"over the wire"

    def test_read_deadline_raises(self, pair):
        _, rx = pair
        with pytest.raises(MPTimeoutError) as info:
            _recv(rx, 1, _deadline(0.05))
        # the time really waited, not a placeholder
        waited = info.value.waited_s
        assert waited >= 0.05
        assert f"{waited:.3f}s" in str(info.value)

    def test_write_deadline_raises_when_full(self, pair):
        # nobody reads, so the send buffer fills and the writer times out
        tx, _ = pair
        with pytest.raises(MPTimeoutError, match="socket write"):
            tx.send_buffers((_oversized(tx),), _deadline(0.05))

    def test_poll_callback_aborts_a_blocked_read(self, pair):
        _, rx = pair
        start = time.monotonic()
        with pytest.raises(MPAbortedError):
            _recv(rx, 1, _deadline(5.0), _abort_after(0.05))
        assert time.monotonic() - start < 1.0  # long before the deadline

    def test_poll_callback_aborts_a_blocked_write(self, pair):
        tx, _ = pair
        start = time.monotonic()
        with pytest.raises(MPAbortedError):
            tx.send_buffers(
                (_oversized(tx),), _deadline(5.0), _abort_after(0.05)
            )
        assert time.monotonic() - start < 1.0

    def test_frame_larger_than_send_buffer(self, pair):
        # a writer thread streams a frame several send buffers long
        tx, rx = pair
        blob = _oversized(tx)
        writer = threading.Thread(
            target=send_frame,
            args=(tx, Frame(FRAME_DATA, payload=blob), _deadline(10.0)),
        )
        writer.start()
        got = recv_frame(rx, _deadline(10.0))
        writer.join(10.0)
        assert not writer.is_alive()
        assert got.payload == blob

    def test_peer_close_raises_not_hangs(self, pair):
        tx, rx = pair
        tx.close()
        with pytest.raises(MPChannelError, match="closed"):
            _recv(rx, 1, _deadline())
