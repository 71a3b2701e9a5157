"""Payload geometry, block grouping and the stream layout.

Every fixed-length kernel (encode, decode, subset decode) needs the same
two pieces of information:

* **geometry** — how many payload bytes each block occupies and where each
  block's bytes start (:func:`block_payload_nbytes`, :func:`payload_offsets`);
* **grouping** — which blocks share a code length ``c``, because blocks with
  equal ``c`` are processed by one vectorised (or one JIT) kernel call.

The grouping is **one** stable argsort (radix sort for uint8 keys, O(n))
and one ``bincount``: each group is a contiguous slice of the order,
already sorted by block index within the group (stability).

Both are pure functions of ``(code_lengths, block_size)``, and so is what
the grouped kernels work on: the stream *staged* in that order
(:class:`Staging`) — every group's rows one slice of the staged block
grid, every kind of byte (sign bits, each byte plane, each group's
residual bits) one slice of the staged payload, and the index that moves
a payload into staged order (one gather) or back (one scatter).  A
:class:`StreamLayout` holds all of that, built **once** per
code-length signature (:func:`stream_layout`, a small LRU keyed on the
code-length bytes) and shared, read-only, by every field and every kernel
call that sees the same signature.  A build is a few whole-stream array
operations however many groups the stream has, since a ring encodes a
stream of a new signature on every round.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache, partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

__all__ = [
    "GroupLayout",
    "Staging",
    "StreamLayout",
    "stream_layout",
    "required_bits",
    "block_payload_nbytes",
    "payload_offsets",
]

#: :func:`stream_layout` keeps at most this many layouts ...
LAYOUT_CACHE_ENTRIES = 256
#: ... and at most this many bytes of them; a layout over an eighth of the
#: budget is handed out but never kept.
LAYOUT_CACHE_BYTES = 1 << 20
#: A layout keeps its staging index when its whole payload has at most
#: this many elements to index (fields up to about 64 KB).  Beyond it
#: building them is a per cent of the kernel time, and keeping them would
#: cost twice the memory of the payload they index.
INDEX_CACHE_ENTRIES = 4096


#: ``2**b`` for every bit a magnitude the format admits can have
_POWERS_OF_TWO = np.left_shift(1, np.arange(32, dtype=np.int64))
_POWERS_OF_TWO.setflags(write=False)


def required_bits(max_magnitudes: np.ndarray) -> np.ndarray:
    """Bit width needed to store each magnitude (0 for zero).

    ``bits(m) = floor(log2(m)) + 1`` for ``m > 0``: the number of powers
    of two at most ``m``, which one binary search per magnitude counts
    exactly for every magnitude below ``2**32`` the format admits.
    """
    return _POWERS_OF_TWO.searchsorted(max_magnitudes, side="right").astype(np.uint8)


def block_payload_nbytes(code_lengths: np.ndarray, block_size: int) -> np.ndarray:
    """Payload bytes per block: ``block_size/8 · (1 + c)``, 0 when constant."""
    c = np.asarray(code_lengths, dtype=np.int64)
    sizes = c + (c > 0)
    sizes *= block_size // 8
    return sizes


@lru_cache(maxsize=16)
def _row_nbytes(block_size: int) -> np.ndarray:
    """:func:`block_payload_nbytes` of every ``uint8`` code length."""
    table = block_payload_nbytes(np.arange(256), block_size)
    table.setflags(write=False)
    return table


def payload_offsets(code_lengths: np.ndarray, block_size: int) -> np.ndarray:
    """Exclusive prefix sum of payload sizes: ``(n_blocks + 1,)`` offsets.

    The code lengths are ``uint8`` by the format (every stream is
    validated to at most 32), so each size is one table lookup.
    """
    c = code_lengths if type(code_lengths) is np.ndarray else np.asarray(code_lengths)
    offsets = np.empty(c.size + 1, dtype=np.int64)
    offsets[0] = 0
    sizes = _row_nbytes(block_size).take(c, out=offsets[1:])
    np.add.accumulate(sizes, out=sizes)
    return offsets


def _sort_and_count(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """One stable O(n) radix argsort of ``uint8`` keys (read-only) and the
    count of every value up to the largest: the groups, in order."""
    order = keys.argsort(kind="stable")
    order.setflags(write=False)
    return order, np.bincount(keys, minlength=1).tolist()


class GroupLayout(NamedTuple):
    """One equal-code-length group of a :class:`StreamLayout`.

    ``rows`` are the group's rows in the block grid, ascending; staged
    (:class:`Staging`) they are rows ``r0 .. r0 + ng``.  Its sign bits and
    byte planes are staged with every other group's; its residual bits
    (``c % 8`` per element) are one slice of the staged payload: ``ng``
    rows of ``(c % 8) · block_size / 8`` bytes from byte ``lo`` (-1 when
    ``c % 8 == 0``).
    """

    c: int
    ng: int
    row_nbytes: int  # 0 for the constant group, which stores nothing
    rows: np.ndarray
    r0: int
    lo: int


#: a ``GroupLayout`` from the tuple of its fields, with no Python-level
#: constructor call (a layout build makes one per group)
_group = partial(tuple.__new__, GroupLayout)


class Staging(NamedTuple):
    """A stream's payload regrouped by kind of byte, as the kernels work.

    Staged rows are the blocks in code-length order: ``order`` maps each
    to its row of the block grid (ascending within a group), ``inverse``
    each row of the grid to its staged row, ``starts`` each staged row to
    where its bytes start in the payload, in ``unit``-byte elements.  The
    constant rows come first; rows ``live`` onwards store something.  The
    staged payload holds, back to back, the sign bits of every live row,
    then byte plane ``k`` of every row that has one — rows whose code
    length is at least ``8 (k + 1)``, a run of staged rows from
    ``planes[k][0]``, from staged byte ``planes[k][1]`` — then each
    group's residual bits.  So every kind of byte is one slice, one
    vectorised operation for all groups; only the residual bits differ per
    group.  ``index`` (small streams only) holds, for each staged element,
    the payload element it is: one gather stages a payload, one scatter
    writes one back.
    """

    groups: tuple[GroupLayout, ...]
    order: np.ndarray
    inverse: np.ndarray
    starts: np.ndarray
    index: np.ndarray | None
    live: int
    planes: tuple[tuple[int, int], ...]
    nbytes: int  # of the staged payload
    #: every slice of the staged payload as ``(first row, rows, first
    #: element within a row, elements per row, first staged element)``
    sections: tuple[tuple[int, int, int, int, int], ...]


class StreamLayout:
    """Everything the grouped kernels derive from one code-length signature.

    ``offsets`` and ``max_c`` are computed on construction (every backend
    needs them); the :class:`Staging` on first use, since only the grouped
    NumPy kernels walk it.  Nothing refers to a payload, so one layout
    serves every stream with these code lengths — get the shared one from
    :func:`stream_layout`.  The constructor keeps ``code_lengths`` and
    ``offsets`` as given: hand it arrays nobody will write to.

    ``blocks`` (subset decode) maps each code length to its block in the
    full stream that ``offsets`` describes; rows then number the subset.
    """

    __slots__ = ("block_size", "n_blocks", "offsets", "unit", "keeps_indices",
                 "footprint", "_keys", "_blocks", "_staging", "_max_c")

    def __init__(
        self,
        code_lengths: np.ndarray,
        block_size: int,
        offsets: np.ndarray | None = None,
        blocks: np.ndarray | None = None,
    ) -> None:
        if offsets is None:
            offsets = payload_offsets(code_lengths, block_size)
            offsets.setflags(write=False)
        self.block_size = block_size
        self.n_blocks = code_lengths.size
        self.offsets = offsets
        #: gathers and scatters move 4-byte words when every row is a whole
        #: number of them, bytes otherwise
        self.unit = 4 if block_size % 32 == 0 else 1
        elements = int(offsets[-1]) // self.unit
        self.keeps_indices = elements <= INDEX_CACHE_ENTRIES
        #: upper bound on the bytes this layout keeps alive once staged
        #: (offsets, order, its inverse, starts, index, the cache's key)
        self.footprint = offsets.nbytes + 25 * self.n_blocks + (
            8 * elements if self.keeps_indices else 0
        )
        self._keys = code_lengths
        self._blocks = blocks
        self._staging: Staging | None = None
        self._max_c: int | None = None

    @property
    def max_c(self) -> int:
        """The largest code length (0 for an empty or all-constant stream)."""
        if self._max_c is None:
            self._max_c = int(np.maximum.reduce(self._keys, initial=0))
        return self._max_c

    @property
    def staging(self) -> Staging:
        """The staged order (built once, then kept)."""
        if self._staging is None:
            # threads that race here build equal stagings; the last one stays
            self._staging = self._stage()
        return self._staging

    @property
    def groups(self) -> tuple[GroupLayout, ...]:
        """The groups in ascending code length."""
        return self.staging.groups

    def _stage(self) -> Staging:
        """Group, place every kind of byte, and lay out the gather.

        One argsort, one count, the inverse order and a gather of the row
        starts; the rest is arithmetic on the (at most 33) group sizes,
        plus, on small streams, the index (:func:`_fill_index`).
        """
        order, counts = _sort_and_count(self._keys)
        blocks, bs, n, unit = self._blocks, self.block_size, self.n_blocks, self.unit
        # the decoder puts staged rows back with one gather by this
        inverse = np.empty(n, np.intp)
        inverse[order] = np.arange(n)
        inverse.setflags(write=False)
        starts = self.offsets.take(order if blocks is None else blocks.take(order))
        if unit == 4:
            starts >>= 2
        starts.setflags(write=False)
        # rows below code length c: the first staged row of every group
        below = list(accumulate(counts, initial=0))
        live, top = below[1], len(below)
        self._max_c = top - 2  # the count runs to the largest code length
        signs, plane = bs // 8 // unit, bs // unit
        sections = [(live, n - live, 0, signs, 0)]
        lo = (n - live) * signs  # staged elements so far
        planes = []
        for k in range(4):
            first = below[8 * k + 8] if 8 * k + 8 < top else n
            if first < n:
                planes.append((first, lo * unit))
                sections.append((first, n - first, signs + k * plane, plane, lo))
                lo += (n - first) * plane
        groups = []
        for c, ng in enumerate(counts):
            if ng:
                r0, at = below[c], -1
                if c & 7:
                    width = (c & 7) * bs // 8 // unit
                    sections.append((r0, ng, signs + (c >> 3) * plane, width, lo))
                    at, lo = lo * unit, lo + ng * width
                groups.append(_group((
                    c, ng, (bs // 8) * (1 + c) if c else 0,
                    order[r0 : r0 + ng], r0, at,
                )))
        index = None
        if self.keeps_indices:
            index = _fill_index(sections, starts, np.empty(lo, np.intp))
            index.setflags(write=False)
        return Staging(
            tuple(groups), order, inverse, starts, index, live, tuple(planes),
            lo * unit, tuple(sections),
        )

    @staticmethod
    def staged_index(staging: Staging, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (any integer type) with the payload element of every
        staged element: row start plus offset within the row
        (:func:`_fill_index`)."""
        return _fill_index(staging.sections, staging.starts, out)


#: rows a kept ramp covers at most; a longer slice is indexed that many
#: rows at a time
_RAMP_ROWS = 4096
#: ``(at, width)`` → ``at .. at + width − 1`` over and over, kept: a
#: geometry has a handful of slice shapes
_ramps: dict[tuple[int, int], np.ndarray] = {}


def _fill_index(sections, starts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each slice of the staged payload is ``rows`` runs of ``width``
    consecutive payload elements: every row start repeated ``width`` times
    plus a kept ramp ``at, at + 1, …`` — whole-slice passes, where a
    broadcast add would run one row of 1–8 elements per inner loop."""
    for first, rows, at, width, u0 in sections:
        if width == 1:
            np.add(starts[first : first + rows], at, out=out[u0 : u0 + rows])
            continue
        ramp = _ramps.get((at, width))
        if ramp is None or (
            ramp.size < rows * width and ramp.size < _RAMP_ROWS * width
        ):
            ramp = _grow_ramp(at, width, rows, ramp)
        r0 = 0
        while r0 < rows:
            r1 = rows if rows - r0 <= _RAMP_ROWS else r0 + _RAMP_ROWS
            np.add(
                starts[first + r0 : first + r1].repeat(width),
                ramp[: (r1 - r0) * width],
                out=out[u0 + r0 * width : u0 + r1 * width],
            )
            r0 = r1
    return out


def _grow_ramp(at: int, width: int, rows: int, ramp: np.ndarray | None) -> np.ndarray:
    """A ramp for at least ``rows`` rows (at most :data:`_RAMP_ROWS`): 256
    at first, then doubling, so the kept ramps grow with the streams
    indexed and a 2 KB stream's stay a few KB."""
    kept = 256 if ramp is None else 2 * (ramp.size // width)
    rows = min(_RAMP_ROWS, max(rows, kept))
    ramp = np.tile(np.arange(at, at + width, dtype=np.intp), rows)
    ramp.setflags(write=False)
    if len(_ramps) >= 64:
        _ramps.clear()
    _ramps[at, width] = ramp
    return ramp


_cache: "OrderedDict[tuple[bytes, int], StreamLayout]" = OrderedDict()
_cache_lock = threading.Lock()
_cache_bytes = 0


def stream_layout(
    code_lengths: np.ndarray,
    block_size: int,
    offsets: np.ndarray | None = None,
) -> StreamLayout:
    """The shared :class:`StreamLayout` of a ``uint8`` code-length array.

    Streams with equal code lengths get the same object.  The encoder asks
    for the layout of the stream it emits, so a field decoded later in the
    same process — or one with the same signature arriving off the wire —
    finds it built.  The cache is a bounded LRU (entries *and* bytes): a
    long-running service sees an unbounded variety of signatures, and only
    the ones a collective is folding right now are worth keeping.
    """
    global _cache_bytes
    if type(code_lengths) is not np.ndarray or code_lengths.dtype != np.uint8:
        code_lengths = np.asarray(code_lengths, dtype=np.uint8)
    key = (code_lengths.tobytes(), block_size)
    with _cache_lock:
        layout = _cache.get(key)
        if layout is not None:
            _cache.move_to_end(key)
            return layout
    # the layout outlives this call: it reads the key's snapshot of the code
    # lengths, and never an offsets array the caller could still write to
    if offsets is not None and offsets.flags.writeable:
        offsets = offsets.copy()
        offsets.setflags(write=False)
    layout = StreamLayout(
        np.frombuffer(key[0], dtype=np.uint8), block_size, offsets
    )
    if layout.footprint <= LAYOUT_CACHE_BYTES // 8:
        with _cache_lock:
            # two threads may have built the same layout: keep the first
            kept = _cache.setdefault(key, layout)
            if kept is layout:
                _cache_bytes += layout.footprint
                while (
                    len(_cache) > LAYOUT_CACHE_ENTRIES
                    or _cache_bytes > LAYOUT_CACHE_BYTES
                ):
                    _cache_bytes -= _cache.popitem(last=False)[1].footprint
            return kept
    return layout
