"""Shared block-grouping plan, payload geometry and the stream layout.

Every fixed-length kernel (encode, decode, subset decode) needs the same
two pieces of information:

* **geometry** — how many payload bytes each block occupies and where each
  block's bytes start (:func:`block_payload_nbytes`, :func:`payload_offsets`);
* **grouping** — which blocks share a code length ``c``, because blocks with
  equal ``c`` are processed by one vectorised (or one JIT) kernel call.

The grouping used to be recomputed per kernel as ``np.unique`` followed by a
full-array ``code_lengths == c`` scan *per distinct c* — up to 33 extra
passes over the code-length array, plus a fancy gather per group.  A
:class:`GroupingPlan` replaces all of that with **one** stable argsort
(radix sort for uint8 keys, O(n)): group ``g`` is simply the contiguous
slice ``order[bounds[g]:bounds[g+1]]``, already sorted by block index
within the group (stability), which is what makes the contiguous-run fast
paths in the backends possible.

Both are pure functions of ``(code_lengths, block_size)``, and so is
everything the grouped kernels derive from them per group: the row size,
whether the group's blocks are one slice of the payload, where its runs
start, the flat gather/scatter indices.  A :class:`StreamLayout` holds all
of that, built **once** per code-length signature (:func:`stream_layout`,
a small LRU keyed on the code-length bytes) and shared, read-only, by every
field and every kernel call that sees the same signature.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "GroupingPlan",
    "GroupLayout",
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
#: A group split into runs averaging at least this many rows is moved by
#: one slice copy per run; shorter runs by one gather over index arrays.
MIN_RUN_ROWS = 8
#: A layout keeps flat gather/scatter indices when its whole payload has at
#: most this many elements to index (fields up to about 64 KB).  Beyond it
#: building them is a per cent of the kernel time, and keeping them would
#: cost twice the memory of the payload they index.
INDEX_CACHE_ENTRIES = 4096


def required_bits(max_magnitudes: np.ndarray) -> np.ndarray:
    """Bit width needed to store each magnitude (0 for zero).

    ``bits(m) = floor(log2(m)) + 1`` for ``m > 0``, which is exactly the
    binary exponent ``np.frexp`` returns (float64 represents every uint32
    value exactly, so the result is exact for all magnitudes the format
    admits — and frexp is cheaper than the log2/ceil formulation).
    """
    m = np.asarray(max_magnitudes)
    return np.frexp(m)[1].astype(np.uint8)


def block_payload_nbytes(code_lengths: np.ndarray, block_size: int) -> np.ndarray:
    """Payload bytes per block: ``block_size/8 · (1 + c)``, 0 when constant."""
    c = np.asarray(code_lengths, dtype=np.int64)
    sizes = c + (c > 0)
    sizes *= block_size // 8
    return sizes


def payload_offsets(code_lengths: np.ndarray, block_size: int) -> np.ndarray:
    """Exclusive prefix sum of payload sizes: ``(n_blocks + 1,)`` offsets."""
    sizes = block_payload_nbytes(code_lengths, block_size)
    offsets = np.empty(sizes.size + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    return offsets


@dataclass(frozen=True)
class GroupingPlan:
    """Equal-code-length block groups from one stable argsort.

    Attributes
    ----------
    order : ``(n,)`` read-only — block positions sorted by code length;
        within a group the positions keep their original ascending order
        (stable sort), so a group whose blocks are consecutive in the
        stream shows up as a consecutive ``order`` slice.
    values : the distinct code lengths, ascending.
    bounds : ``n_groups + 1`` ints — group ``g`` is
        ``order[bounds[g]:bounds[g+1]]``.

    Nothing here can be written to: a plan is shared by everything that
    holds the layout built from it.
    """

    order: np.ndarray
    values: tuple[int, ...]
    bounds: tuple[int, ...]

    @classmethod
    def from_code_lengths(cls, code_lengths: np.ndarray) -> "GroupingPlan":
        """Build the plan with one O(n) radix argsort of the uint8 keys."""
        keys = np.asarray(code_lengths)
        order = keys.argsort(kind="stable")
        order.setflags(write=False)
        if not keys.size:
            return cls(order=order, values=(), bounds=(0,))
        sorted_c = keys[order]
        changes = (sorted_c[1:] != sorted_c[:-1]).nonzero()[0].tolist()
        bounds = (0, *[i + 1 for i in changes], keys.size)
        values = tuple(sorted_c[list(bounds[:-1])].tolist())
        return cls(order=order, values=values, bounds=bounds)

    @property
    def n_groups(self) -> int:
        return len(self.values)

    def groups(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(code_length, block_positions)`` per group, ascending c."""
        bounds = self.bounds
        for g, c in enumerate(self.values):
            yield c, self.order[bounds[g] : bounds[g + 1]]


class GroupLayout(NamedTuple):
    """One equal-code-length group of a :class:`StreamLayout`.

    ``rows`` are the group's rows in the decoded block grid, ascending.
    Its payload bytes are found in exactly one of three ways: ``lo >= 0``
    — the blocks are one run, so the bytes are the slice starting there;
    ``runs`` — a few long runs, each a ``(row byte start, row byte stop,
    payload byte start)`` slice copy; otherwise ``first`` holds every
    block's payload offset in the layout's ``unit``-byte elements, and
    ``index`` (small streams only) the flat gather/scatter indices built
    from it.
    """

    c: int
    ng: int
    row_nbytes: int  # 0 for the constant group, which stores nothing
    rows: np.ndarray
    row0: int  # first row when ``rows`` is one run, else -1
    lo: int
    runs: tuple[tuple[int, int, int], ...] | None
    first: np.ndarray | None
    index: np.ndarray | None


class StreamLayout:
    """Everything the grouped kernels derive from one code-length signature.

    ``offsets`` and ``max_c`` are computed on construction (every backend
    needs them); ``groups`` on first use, since only the grouped NumPy
    kernels walk them.  Nothing refers to a payload, so one layout serves
    every stream with these code lengths — get the shared one from
    :func:`stream_layout`.  The constructor keeps ``code_lengths`` and
    ``offsets`` as given: hand it arrays nobody will write to.

    ``blocks`` (subset decode) maps each code length to its block in the
    full stream that ``offsets`` describes; rows then number the subset.
    """

    __slots__ = ("block_size", "n_blocks", "offsets", "max_c", "unit",
                 "keeps_indices", "footprint", "_keys", "_blocks", "_groups")

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
        self.max_c = int(code_lengths.max(initial=0))
        #: gathers and scatters move 4-byte words when every row is a whole
        #: number of them, bytes otherwise
        self.unit = 4 if block_size % 32 == 0 else 1
        elements = int(offsets[-1]) // self.unit
        self.keeps_indices = elements <= INDEX_CACHE_ENTRIES
        #: upper bound on the bytes this layout keeps alive once its groups
        #: are built (offsets, order, starts, indices, the cache's key)
        self.footprint = offsets.nbytes + 17 * self.n_blocks + (
            8 * elements if self.keeps_indices else 0
        )
        self._keys = code_lengths
        self._blocks = blocks
        self._groups: tuple[GroupLayout, ...] | None = None

    @property
    def groups(self) -> tuple[GroupLayout, ...]:
        """The groups in ascending code length (built once, then kept)."""
        if self._groups is None:
            # threads that race here build equal tuples; the last one stays
            self._groups = self._build_groups()
        return self._groups

    def _build_groups(self) -> tuple[GroupLayout, ...]:
        """Group, find the runs and lay out the gathers.

        Everything that is one value per group is computed for all groups
        in one array operation and read as a list, so a stream of three
        groups costs little more than a stream of one.
        """
        plan = GroupingPlan.from_code_lengths(self._keys)
        order, bounds, blocks = plan.order, plan.bounds, self._blocks
        if not plan.values:
            return ()
        heads = list(bounds[:-1])
        tails = [b - 1 for b in bounds[1:]]
        first_rows, last_rows = order[heads].tolist(), order[tails].tolist()
        # ``ids``: the block each sorted row reads its bytes from
        ids = order if blocks is None else blocks[order]
        starts = self.offsets[ids]
        if self.unit == 4:
            starts >>= 2
        starts.setflags(write=False)
        # A jump: sorted neighbours that are not neighbours in the stream;
        # those strictly inside a group cut it into runs.  In a whole stream
        # a group's ids ascend, so its ends tell whether it has any, and
        # counting them only matters where a few run copies could replace a
        # gather — so most streams never look.
        jumps = spans = None

        groups = []
        for g, c in enumerate(plan.values):
            b0, b1 = bounds[g], bounds[g + 1]
            ng, rows = b1 - b0, order[b0:b1]
            row0 = first_rows[g] if last_rows[g] - first_rows[g] == ng - 1 else -1
            if c == 0:
                groups.append(GroupLayout(0, ng, 0, rows, row0, -1, None, None, None))
                continue
            row_nbytes = (self.block_size // 8) * (1 + c)
            if blocks is None and (row0 >= 0 or ng < 2 * MIN_RUN_ROWS):
                n_cuts = 0 if row0 >= 0 else ng  # none, or too many to matter
            else:
                if jumps is None:
                    jumps = (ids[1:] - ids[:-1] != 1).nonzero()[0]
                    spans = jumps.searchsorted(heads + tails).tolist()
                j0, j1 = spans[g], spans[len(heads) + g]
                n_cuts = j1 - j0
            lo, runs, first, index = -1, None, None, None
            if n_cuts == 0:
                lo = int(starts[b0]) * self.unit
            elif n_cuts + 1 <= ng // MIN_RUN_ROWS:
                # few long runs: plain slice copies, no index matrices at all
                edges = [b0, *(jumps[j0:j1] + 1).tolist(), b1]
                run_starts = (starts[edges[:-1]] * self.unit).tolist()
                runs = tuple(
                    ((s - b0) * row_nbytes, (e - b0) * row_nbytes, byte)
                    for s, e, byte in zip(edges, edges[1:], run_starts)
                )
            else:
                first = starts[b0:b1]
                if self.keeps_indices:
                    index = flat_row_indices(first, row_nbytes // self.unit)
                    index.setflags(write=False)
            groups.append(
                GroupLayout(c, ng, row_nbytes, rows, row0, lo, runs, first, index)
            )
        return tuple(groups)


@lru_cache(maxsize=64)
def _iota(n: int) -> np.ndarray:
    """``arange(n)``, kept: row widths are a handful of small numbers."""
    out = np.arange(n, dtype=np.intp)
    out.setflags(write=False)
    return out


def flat_row_indices(
    first: np.ndarray, width: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Flat indices of ``width``-element rows starting at elements ``first``.

    Into ``out`` (``(len(first), width)``, any integer type) when given,
    with the sums done in its type.
    """
    if out is None:
        return (first[:, None] + _iota(width)).reshape(-1)
    np.add(
        first.astype(out.dtype, copy=False)[:, None],
        _iota(width).astype(out.dtype, copy=False),
        out=out,
    )
    return out.reshape(-1)


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
    key = (np.asarray(code_lengths, dtype=np.uint8).tobytes(), block_size)
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
