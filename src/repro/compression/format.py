"""Compressed-stream container and wire format.

A :class:`CompressedField` is the in-memory form of one fZ-light-compressed
array: per-thread-block outliers, per-block code lengths, and the
fixed-length-encoded payload.  The homomorphic engine operates on this
structure directly (the whole point of the paper), and :meth:`to_bytes` /
:func:`from_bytes` give the byte stream that actually travels through the
collectives and defines the compression ratio.

Block layout
------------
The input is split into ``n_threadblocks`` large contiguous chunks (one per
worker thread), each chunk's delta stream is padded with zeros to a multiple
of ``block_size``, and blocks are numbered thread-block-major.  Two fields
compressed with the same ``(n, block_size, n_threadblocks)`` triple
therefore have *identical* block geometry — which is what lets hZ-dynamic
walk the two code-length arrays in lockstep without any decompression.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..kernels.plan import StreamLayout, stream_layout
from ..utils.chunking import num_blocks, threadblock_bounds

__all__ = [
    "BlockStructure",
    "block_structure",
    "deltas_to_blocks",
    "blocks_to_deltas",
    "CompressedField",
    "from_bytes",
]

_MAGIC = b"HZCC"
_VERSION = 4
#: magic, version, predictor, block_size, n, n_tb, n_blocks, payload, rows,
#: cols, eb — followed by a CRC32 of (this prefix + body), so any single
#: corrupted byte anywhere in the stream is detected before parsing digs in.
_HEADER_PREFIX = struct.Struct("<4sBBHQIQQIId")
_CRC = struct.Struct("<I")
_HEADER_SIZE = _HEADER_PREFIX.size + _CRC.size

#: Predictor identifiers (homomorphic operations require equal predictors —
#: deltas from different predictors live in different linear bases).
PREDICTOR_LORENZO_1D = 0
PREDICTOR_LORENZO_2D = 1
PREDICTOR_LORENZO_3D = 2


@dataclass(frozen=True)
class BlockStructure:
    """Derived block geometry for a ``(n, block_size, n_threadblocks)`` triple."""

    n: int
    block_size: int
    n_threadblocks: int
    bounds: np.ndarray  # (n_tb + 1,) element offsets of thread-blocks
    blocks_per_tb: np.ndarray  # (n_tb,) block counts
    block_starts: np.ndarray  # (n_tb + 1,) block-index offsets

    @property
    def total_blocks(self) -> int:
        return int(self.block_starts[-1])

    @cached_property
    def element_to_slot(self) -> np.ndarray:
        """Flat index of each input element inside the padded block array.

        Element at local offset ``l`` of thread-block ``t`` lands at padded
        position ``block_starts[t]·block_size + l``; the map is therefore a
        repeat-plus-arange, no per-element Python work.
        """
        lengths = np.diff(self.bounds)
        local = np.arange(self.n, dtype=np.int64) - np.repeat(
            self.bounds[:-1], lengths
        )
        slots = np.repeat(self.block_starts[:-1] * self.block_size, lengths) + local
        slots.setflags(write=False)
        return slots


@lru_cache(maxsize=256)
def block_structure(n: int, block_size: int, n_threadblocks: int) -> BlockStructure:
    """Compute (and memoise) the block geometry for a field shape.

    Geometry depends only on the triple, and collectives compress thousands
    of same-shaped chunks, so the cache removes redundant prefix-sum work.
    The memo is a bounded LRU — a size sweep evicts its coldest geometry,
    never the hot ones a running collective keeps touching — and the arrays
    are read-only, because every field of that shape shares them.
    """
    bounds = threadblock_bounds(n, n_threadblocks)
    lengths = np.diff(bounds)
    blocks_per_tb = np.array(
        [num_blocks(int(ln), block_size) if ln else 0 for ln in lengths],
        dtype=np.int64,
    )
    block_starts = np.empty(n_threadblocks + 1, dtype=np.int64)
    block_starts[0] = 0
    np.cumsum(blocks_per_tb, out=block_starts[1:])
    for shared in (bounds, blocks_per_tb, block_starts):
        shared.setflags(write=False)
    return BlockStructure(
        n=n,
        block_size=block_size,
        n_threadblocks=n_threadblocks,
        bounds=bounds,
        blocks_per_tb=blocks_per_tb,
        block_starts=block_starts,
    )


def deltas_to_blocks(deltas: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Scatter a 1-D delta stream into the padded ``(total_blocks, bs)`` grid.

    One contiguous copy per thread-block (a few dozen) instead of a fancy
    scatter over every element — the thread-blocks *are* contiguous, only
    their padded tails shift, so this is the cache-friendly formulation the
    paper's multi-layer partitioning is designed to enable.
    """
    bs = structure.block_size
    grid = np.zeros(structure.total_blocks * bs, dtype=deltas.dtype)
    bounds, starts = structure.bounds, structure.block_starts
    for t in range(structure.n_threadblocks):
        lo, hi = int(bounds[t]), int(bounds[t + 1])
        if lo == hi:
            continue
        dst = int(starts[t]) * bs
        grid[dst : dst + (hi - lo)] = deltas[lo:hi]
    return grid.reshape(structure.total_blocks, bs)


def blocks_to_deltas(blocks: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Gather the padded block grid back into the 1-D delta stream."""
    bs = structure.block_size
    flat = blocks.reshape(-1)
    out = np.empty(structure.n, dtype=blocks.dtype)
    bounds, starts = structure.bounds, structure.block_starts
    for t in range(structure.n_threadblocks):
        lo, hi = int(bounds[t]), int(bounds[t + 1])
        if lo == hi:
            continue
        src = int(starts[t]) * bs
        out[lo:hi] = flat[src : src + (hi - lo)]
    return out


@dataclass
class CompressedField:
    """One compressed array: metadata + outliers + code lengths + payload."""

    n: int
    error_bound: float
    block_size: int
    n_threadblocks: int
    outliers: np.ndarray  # (n_threadblocks,) int64
    code_lengths: np.ndarray  # (total_blocks,) uint8
    payload: np.ndarray  # (payload_nbytes,) uint8
    #: which linear predictor produced the deltas (PREDICTOR_*)
    predictor: int = PREDICTOR_LORENZO_1D
    #: leading dimension for 2-D/3-D predictors (0 for 1-D streams)
    rows: int = 0
    #: second dimension for 3-D predictors (0 otherwise)
    cols: int = 0
    _offsets: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: found on first use (see ``layout``); not an init argument, so
    #: ``dataclasses.replace`` never carries one over to new code lengths
    _layout: StreamLayout | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def structure(self) -> BlockStructure:
        return block_structure(self.n, self.block_size, self.n_threadblocks)

    @property
    def layout(self) -> StreamLayout:
        """The stream layout of this field's code lengths (found once, kept).

        Shared with every field of the same signature; the encoder that
        emitted this stream has usually built it already.
        """
        if self._layout is None:
            self._layout = stream_layout(
                self.code_lengths, self.block_size, self._offsets
            )
        return self._layout

    @property
    def offsets(self) -> np.ndarray:
        """Per-block payload offsets (the layout's, unless given)."""
        if self._offsets is None:
            self._offsets = self.layout.offsets
        return self._offsets

    @property
    def nbytes(self) -> int:
        """Size of the serialised stream — the network-visible message size."""
        return (
            _HEADER_SIZE
            + self.code_lengths.size
            + self.outliers.size * 8
            + self.payload.size
        )

    @property
    def original_nbytes(self) -> int:
        return self.n * 4  # float32 input

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / self.nbytes

    def compatible_with(self, other: "CompressedField") -> bool:
        """True when homomorphic operations between the two are defined."""
        return (
            self.n == other.n
            and self.block_size == other.block_size
            and self.n_threadblocks == other.n_threadblocks
            and self.error_bound == other.error_bound
            and self.predictor == other.predictor
            and self.rows == other.rows
            and self.cols == other.cols
        )

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on corruption."""
        if self.code_lengths.size and int(self.code_lengths.max()) > 32:
            raise ValueError("corrupt stream: code length exceeds 32 bits")
        structure = self.structure
        if self.code_lengths.size != structure.total_blocks:
            raise ValueError(
                f"code_lengths has {self.code_lengths.size} entries, geometry "
                f"implies {structure.total_blocks}"
            )
        if self.outliers.size != self.n_threadblocks:
            raise ValueError("outliers length does not match n_threadblocks")
        expected = int(self.offsets[-1])
        if self.payload.size != expected:
            raise ValueError(
                f"payload has {self.payload.size} bytes, code lengths imply {expected}"
            )

    def to_bytes(self) -> bytes:
        """Serialise to the wire format used by the collectives.

        The header carries a CRC32 over the header prefix and the body, so
        a receiver detects any corruption in flight with one cheap pass
        (``from_bytes`` verifies it before touching the geometry).
        """
        prefix = _HEADER_PREFIX.pack(
            _MAGIC,
            _VERSION,
            self.predictor,
            self.block_size,
            self.n,
            self.n_threadblocks,
            self.code_lengths.size,
            self.payload.size,
            self.rows,
            self.cols,
            self.error_bound,
        )
        code_lengths = self.code_lengths.tobytes()
        outliers = self.outliers.astype("<i8").tobytes()
        payload = self.payload.tobytes()
        crc = zlib.crc32(prefix)
        crc = zlib.crc32(code_lengths, crc)
        crc = zlib.crc32(outliers, crc)
        crc = zlib.crc32(payload, crc)
        return b"".join(
            (prefix, _CRC.pack(crc), code_lengths, outliers, payload)
        )

    def copy(self) -> "CompressedField":
        return CompressedField(
            n=self.n,
            error_bound=self.error_bound,
            block_size=self.block_size,
            n_threadblocks=self.n_threadblocks,
            outliers=self.outliers.copy(),
            code_lengths=self.code_lengths.copy(),
            payload=self.payload.copy(),
            predictor=self.predictor,
            rows=self.rows,
            cols=self.cols,
        )


def from_bytes(stream: bytes | memoryview) -> CompressedField:
    """Parse the wire format back into a :class:`CompressedField`.

    Raises ``ValueError`` on a bad magic number, version, truncation, or a
    checksum mismatch (any corrupted byte in header or body).
    """
    stream = memoryview(stream)
    if len(stream) < _HEADER_SIZE:
        raise ValueError("stream shorter than header")
    (
        magic,
        version,
        predictor,
        block_size,
        n,
        n_tb,
        n_blocks,
        payload_nbytes,
        rows,
        cols,
        eb,
    ) = _HEADER_PREFIX.unpack(stream[: _HEADER_PREFIX.size])
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    pos = _HEADER_SIZE
    expected = pos + n_blocks + n_tb * 8 + payload_nbytes
    if len(stream) != expected:
        raise ValueError(f"stream has {len(stream)} bytes, header implies {expected}")
    (stored_crc,) = _CRC.unpack(stream[_HEADER_PREFIX.size : _HEADER_SIZE])
    crc = zlib.crc32(stream[: _HEADER_PREFIX.size])
    crc = zlib.crc32(stream[_HEADER_SIZE:], crc)
    if crc != stored_crc:
        raise ValueError(
            f"corrupt stream: checksum mismatch (stored {stored_crc:#010x}, "
            f"computed {crc:#010x})"
        )
    # Header sanity: a crafted stream with a valid checksum must still fail
    # cleanly here, not with an arithmetic error deeper in the geometry
    # computations.
    if block_size <= 0 or block_size % 8:
        raise ValueError(f"corrupt header: block_size {block_size}")
    if n < 1:
        raise ValueError(f"corrupt header: n {n}")
    if n_tb < 1:
        raise ValueError(f"corrupt header: n_threadblocks {n_tb}")
    if predictor not in (
        PREDICTOR_LORENZO_1D,
        PREDICTOR_LORENZO_2D,
        PREDICTOR_LORENZO_3D,
    ):
        raise ValueError(f"corrupt header: unknown predictor {predictor}")
    if predictor == PREDICTOR_LORENZO_2D and (rows < 1 or n % rows):
        raise ValueError(f"corrupt header: rows {rows} for n {n}")
    if predictor == PREDICTOR_LORENZO_3D and (
        rows < 1 or cols < 1 or n % max(rows * cols, 1)
    ):
        raise ValueError(f"corrupt header: dims ({rows}, {cols}) for n {n}")
    if not (eb > 0 and np.isfinite(eb)):
        raise ValueError(f"corrupt header: error bound {eb}")
    code_lengths = np.frombuffer(stream, dtype=np.uint8, count=n_blocks, offset=pos).copy()
    pos += n_blocks
    outliers = np.frombuffer(stream, dtype="<i8", count=n_tb, offset=pos).astype(
        np.int64
    )
    pos += n_tb * 8
    payload = np.frombuffer(
        stream, dtype=np.uint8, count=payload_nbytes, offset=pos
    ).copy()
    out = CompressedField(
        n=n,
        error_bound=eb,
        block_size=block_size,
        n_threadblocks=n_tb,
        outliers=outliers,
        code_lengths=code_lengths,
        payload=payload,
        predictor=predictor,
        rows=rows,
        cols=cols,
    )
    out.validate()
    return out
