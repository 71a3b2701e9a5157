"""Thread-local scratch-buffer arena for the kernel hot path.

The fixed-length kernels need the same family of temporaries on every call
— magnitude planes, sign masks, gather/scatter index matrices, per-group
row buffers.  Allocating them fresh each time pays malloc + first-touch
page-fault cost on tens of megabytes per 16 MB field; the arena keeps one
persistent buffer per *tag* and hands out views, so a steady-state encode
or decode performs **zero** large allocations for its scratch space.

Rules of the road:

* Arenas are **thread-local** (:func:`get_arena`): FZLight's pool workers
  each get their own, so no locking is needed anywhere on the hot path.
* A tag's buffer is clobbered by the next :meth:`~ScratchArena.take` of the
  same tag on the same thread.  Scratch views must therefore never escape
  the kernel call that took them — anything *returned* to a caller
  (payloads, code lengths, decoded blocks the caller keeps) is allocated
  normally, unless the caller explicitly passes its own ``out=`` buffer.
* Buffers only grow (geometrically, to amortise creeping sizes); call
  :meth:`~ScratchArena.clear` to release them (tests, memory-pressure
  hooks).
* A view is built once per ``(tag, shape, dtype)`` and handed out again
  until the tag's buffer is replaced: a kernel asks for the same few dozen
  views on every call, and constructing one costs more than the lookup.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["ScratchArena", "get_arena"]

#: Views remembered per arena.  A view is ~100 bytes and holds no data of
#: its own, but shapes follow the data (one per group size), so the memo is
#: emptied when it fills rather than left to grow with a service's uptime.
VIEW_MEMO_ENTRIES = 1024


class ScratchArena:
    """A pool of named, growable scratch buffers backing kernel temporaries."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}
        #: Count of backing-buffer creations/growths since construction (or
        #: the last :meth:`clear`).  A warmed steady state must not move
        #: this — the allocation-freedom tests pin exactly that.
        self.allocations = 0

    def take(
        self,
        tag: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.uint8,
        zero: bool = False,
    ) -> np.ndarray:
        """Return a ``shape``/``dtype`` view over the buffer named ``tag``.

        The view aliases previous contents for that tag (the caller is
        expected to overwrite every element it reads, or pass
        ``zero=True`` to get a cleared view).  The backing buffer grows
        geometrically when the request exceeds its capacity, so repeated
        slightly-larger requests do not reallocate every call.
        """
        key = (tag, shape, dtype)
        view = self._views.get(key)
        if view is None:
            view = self._new_view(tag, shape, dtype)
            if len(self._views) >= VIEW_MEMO_ENTRIES:
                self._views.clear()
            self._views[key] = view
        if zero:
            view.fill(0)
        return view

    def _new_view(self, tag: str, shape, dtype) -> np.ndarray:
        """Size ``tag``'s buffer for the request and build the view on it."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        dtype = np.dtype(dtype)
        n = 1
        for dim in shape:
            if dim < 0:
                raise ValueError(f"negative dimension in shape {shape}")
            n *= int(dim)
        nbytes = n * dtype.itemsize
        buf = self._buffers.get(tag)
        if buf is None or buf.nbytes < nbytes:
            capacity = nbytes if buf is None else max(nbytes, 2 * buf.nbytes)
            buf = np.empty(capacity, dtype=np.uint8)
            self._buffers[tag] = buf
            self.allocations += 1
            # views of the buffer this one replaces must not be handed out
            # again: they would keep it alive and alias nothing current
            for stale in [key for key in self._views if key[0] == tag]:
                del self._views[stale]
        return buf[:nbytes].view(dtype).reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all tags."""
        return sum(b.nbytes for b in self._buffers.values())

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(self._buffers)

    def clear(self) -> None:
        """Drop every buffer (memory is released to the allocator)."""
        self._buffers.clear()
        self._views.clear()
        self.allocations = 0


_TLS = threading.local()


def get_arena() -> ScratchArena:
    """The calling thread's arena (created on first use)."""
    arena = getattr(_TLS, "arena", None)
    if arena is None:
        arena = ScratchArena()
        _TLS.arena = arena
    return arena
