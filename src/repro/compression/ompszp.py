"""ompSZp: CPU port of cuSZp's parallelism strategy (the paper's baseline).

cuSZp is a GPU compressor; the paper evaluates against *ompSZp*, its
OpenMP/CPU translation, and attributes fZ-light's wins to four concrete
design differences, all of which are reproduced here:

* **Single-layer partitioning** — the input is cut directly into small
  blocks, and each "thread" is assigned blocks round-robin (thread ``t``
  gets blocks ``t, t+N, t+2N, …``), so consecutive work items are far apart
  in memory.  We execute blocks in that interleaved order through real
  gather/scatter passes, which costs genuine extra memory traffic.
* **One outlier per small block** — every non-skipped block stores its
  first quantised value as a raw four-byte outlier (fZ-light stores one per
  large thread-block), which is what caps ompSZp's ratio on datasets with
  many blocks, e.g. CESM-ATM.
* **Unfused quantisation and prediction** — two full passes with a
  materialised intermediate array, plus a separate code-length pass with a
  global synchronisation before encoding (cuSZp's layout needs all block
  sizes before it can place any output), i.e. four sweeps over the data
  instead of fZ-light's fused ones.
* **Bit-shuffle encoding** — magnitudes are stored plane-major (all blocks'
  bit 0, then bit 1, …) instead of fZ-light's byte-plane + residual-bit
  layout.
* **Zero-block skip** — blocks whose *original* data is exactly zero are
  recorded with a marker byte and nothing else; this is the one mechanism
  that lets ompSZp beat fZ-light on RTM Simulation Setting 1, which has a
  large quiet halo.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..kernels.plan import _sort_and_count
from ..utils.chunking import num_blocks, pad_to_multiple
from ..utils.validation import ensure_float_array, ensure_positive_int
from .common import dequantize, quantize, resolve_error_bound
from .encoding import DEFAULT_BLOCK_SIZE, MAX_CODE_LENGTH, required_bits

__all__ = ["OmpSZpField", "OmpSZp", "ompszp_from_bytes"]

#: Marker stored in the code-length byte for a skipped all-zero data block.
ZERO_BLOCK_MARKER = 0xFF

_OSZP_MAGIC = b"OSZP"
_OSZP_VERSION = 1
#: magic, version, block_size, n, eb, 5 pad bytes, CRC32 — 32 bytes total,
#: matching the header size the ``nbytes`` accounting has always assumed.
_OSZP_HEADER_PREFIX = struct.Struct("<4sBHQd5x")
_OSZP_CRC = struct.Struct("<I")
_OSZP_HEADER_SIZE = _OSZP_HEADER_PREFIX.size + _OSZP_CRC.size


@dataclass
class OmpSZpField:
    """Compressed stream in cuSZp's single-layer layout."""

    n: int
    error_bound: float
    block_size: int
    code_lengths: np.ndarray  # (n_blocks,) uint8; ZERO_BLOCK_MARKER = skipped
    outliers: np.ndarray  # (n_blocks,) int64; valid where not skipped
    payload: np.ndarray  # uint8

    @property
    def n_blocks(self) -> int:
        return self.code_lengths.size

    @property
    def nbytes(self) -> int:
        """Serialised size: header + 1 B/block marker + 4 B/outlier + payload.

        Outliers are four bytes each (int32), matching cuSZp; skipped blocks
        store only their marker byte.
        """
        header = 32
        n_stored = int((self.code_lengths != ZERO_BLOCK_MARKER).sum())
        return header + self.n_blocks + 4 * n_stored + self.payload.size

    @property
    def original_nbytes(self) -> int:
        return self.n * 4

    @property
    def compression_ratio(self) -> float:
        return self.original_nbytes / self.nbytes

    def to_bytes(self) -> bytes:
        """Serialise to the cuSZp-style wire layout (checksummed).

        Skipped (all-zero) blocks store only their marker byte; outliers are
        four bytes each and present for stored blocks only — exactly the
        layout ``nbytes`` has always accounted for, so
        ``len(field.to_bytes()) == field.nbytes``.
        """
        stored = self.code_lengths != ZERO_BLOCK_MARKER
        prefix = _OSZP_HEADER_PREFIX.pack(
            _OSZP_MAGIC, _OSZP_VERSION, self.block_size, self.n, self.error_bound
        )
        markers = self.code_lengths.astype(np.uint8).tobytes()
        outliers = self.outliers[stored].astype("<i4").tobytes()
        payload = self.payload.tobytes()
        crc = zlib.crc32(prefix)
        crc = zlib.crc32(markers, crc)
        crc = zlib.crc32(outliers, crc)
        crc = zlib.crc32(payload, crc)
        return b"".join((prefix, _OSZP_CRC.pack(crc), markers, outliers, payload))


def ompszp_from_bytes(stream: bytes | memoryview) -> OmpSZpField:
    """Parse the ompSZp wire layout back into an :class:`OmpSZpField`.

    Raises ``ValueError`` on bad magic/version, truncation, checksum
    mismatch, or any structurally inconsistent geometry.
    """
    stream = memoryview(stream)
    if len(stream) < _OSZP_HEADER_SIZE:
        raise ValueError("stream shorter than header")
    magic, version, block_size, n, eb = _OSZP_HEADER_PREFIX.unpack(
        stream[: _OSZP_HEADER_PREFIX.size]
    )
    if magic != _OSZP_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != _OSZP_VERSION:
        raise ValueError(f"unsupported version {version}")
    if block_size <= 0 or block_size % 8:
        raise ValueError(f"corrupt header: block_size {block_size}")
    if n < 1:
        raise ValueError(f"corrupt header: n {n}")
    if not (eb > 0 and np.isfinite(eb)):
        raise ValueError(f"corrupt header: error bound {eb}")
    n_blocks = num_blocks(n, block_size)
    pos = _OSZP_HEADER_SIZE
    if len(stream) < pos + n_blocks:
        raise ValueError("stream truncated inside block markers")
    code_lengths = np.frombuffer(
        stream, dtype=np.uint8, count=n_blocks, offset=pos
    ).copy()
    pos += n_blocks
    stored = code_lengths != ZERO_BLOCK_MARKER
    bad = stored & (code_lengths > MAX_CODE_LENGTH)
    if bad.any():
        raise ValueError("corrupt stream: code length exceeds 32 bits")
    n_stored = int(stored.sum())
    eff = np.where(stored, code_lengths, 0).astype(np.int64)
    payload_nbytes = int(
        np.where(eff > 0, (block_size // 8) * (1 + eff), 0).sum()
    )
    expected = pos + 4 * n_stored + payload_nbytes
    if len(stream) != expected:
        raise ValueError(
            f"stream has {len(stream)} bytes, markers imply {expected}"
        )
    crc = zlib.crc32(stream[: _OSZP_HEADER_PREFIX.size])
    crc = zlib.crc32(stream[_OSZP_HEADER_SIZE:], crc)
    (stored_crc,) = _OSZP_CRC.unpack(
        stream[_OSZP_HEADER_PREFIX.size : _OSZP_HEADER_SIZE]
    )
    if crc != stored_crc:
        raise ValueError(
            f"corrupt stream: checksum mismatch (stored {stored_crc:#010x}, "
            f"computed {crc:#010x})"
        )
    outliers = np.zeros(n_blocks, dtype=np.int64)
    outliers[stored] = np.frombuffer(
        stream, dtype="<i4", count=n_stored, offset=pos
    ).astype(np.int64)
    pos += 4 * n_stored
    payload = np.frombuffer(
        stream, dtype=np.uint8, count=payload_nbytes, offset=pos
    ).copy()
    return OmpSZpField(
        n=n,
        error_bound=eb,
        block_size=block_size,
        code_lengths=code_lengths,
        outliers=outliers,
        payload=payload,
    )


class OmpSZp:
    """cuSZp's CPU parallelism strategy, reproduced warts and all.

    Parameters
    ----------
    block_size : elements per block (multiple of 8; cuSZp uses 32).
    n_threads : round-robin interleave factor — determines how far apart a
        "thread's" consecutive blocks are in memory.
    """

    def __init__(
        self, block_size: int = DEFAULT_BLOCK_SIZE, n_threads: int = 36
    ) -> None:
        if block_size % 8 or block_size <= 0:
            raise ValueError("block_size must be a positive multiple of 8")
        self.block_size = block_size
        self.n_threads = ensure_positive_int(n_threads, "n_threads")

    # ------------------------------------------------------------------ #
    def _interleave_order(self, n_blocks: int) -> np.ndarray:
        """GPU-style block→thread assignment order (thread-major)."""
        idx = np.arange(n_blocks, dtype=np.int64)
        # Sort by (block % n_threads, block // n_threads): thread 0's blocks
        # first, then thread 1's, etc. — the "hop between distant small
        # blocks" pattern the paper calls out.
        return np.lexsort((idx // self.n_threads, idx % self.n_threads))

    def compress(
        self,
        data: np.ndarray,
        abs_eb: float | None = None,
        rel_eb: float | None = None,
    ) -> OmpSZpField:
        data = ensure_float_array(data)
        error_bound = resolve_error_bound(data, abs_eb=abs_eb, rel_eb=rel_eb)
        bs = self.block_size
        padded = pad_to_multiple(data, bs)
        n_blocks = padded.size // bs
        raw_blocks = padded.reshape(n_blocks, bs)

        # Zero-data skip operates on the *original* values, pre-quantisation.
        zero_mask = ~raw_blocks.any(axis=1)

        # Pass 1 (unfused): quantise everything, materialising the codes.
        codes = quantize(padded, error_bound).reshape(n_blocks, bs)
        # Pass 2 (unfused): block-local prediction; d[0] = 0, outlier = q[0].
        deltas = np.empty_like(codes)
        deltas[:, 0] = 0
        np.subtract(codes[:, 1:], codes[:, :-1], out=deltas[:, 1:])
        outliers = codes[:, 0].copy()

        # Pass 3: block-wise code lengths, then a "global synchronisation"
        # (the prefix sum that places each block's output).
        mags64 = np.abs(deltas)
        max_mag = mags64.max(axis=1, initial=0)
        if max_mag.size and int(max_mag.max()) >= (1 << MAX_CODE_LENGTH):
            raise OverflowError(
                "prediction delta exceeds 32-bit magnitude; the error bound "
                "is too tight for this data's dynamic range"
            )
        code_lengths = required_bits(max_mag)
        sizes = np.where(code_lengths > 0, (bs // 8) * (1 + code_lengths.astype(np.int64)), 0)
        sizes[zero_mask] = 0
        offsets = np.empty(n_blocks + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(sizes, out=offsets[1:])

        # Pass 4: encode in thread-interleaved order (gather → encode →
        # scatter), the memory-access pattern of the GPU port.
        order = self._interleave_order(n_blocks)
        payload = np.empty(int(offsets[-1]), dtype=np.uint8)
        mags = mags64.astype(np.uint32)[order]
        signs = (deltas < 0)[order]
        lens = code_lengths.copy()
        lens[zero_mask] = 0
        ordered_lens = lens[order]
        ordered_offsets = offsets[:-1][order]
        for c, sel in _coded_groups(ordered_lens):
            rows = _bitshuffle_encode(mags[sel], signs[sel], c)
            dest = ordered_offsets[sel][:, None] + np.arange(
                rows.shape[1], dtype=np.int64
            )
            payload[dest.ravel()] = rows.ravel()

        code_lengths = code_lengths.astype(np.uint8)
        code_lengths[zero_mask] = ZERO_BLOCK_MARKER
        return OmpSZpField(
            n=data.size,
            error_bound=error_bound,
            block_size=bs,
            code_lengths=code_lengths,
            outliers=outliers.astype(np.int64),
            payload=payload,
        )

    # ------------------------------------------------------------------ #
    def decompress(self, compressed: OmpSZpField) -> np.ndarray:
        bs = compressed.block_size
        n_blocks = compressed.n_blocks
        lens = compressed.code_lengths
        zero_mask = lens == ZERO_BLOCK_MARKER
        eff_lens = np.where(zero_mask, 0, lens).astype(np.int64)
        sizes = np.where(eff_lens > 0, (bs // 8) * (1 + eff_lens), 0)
        offsets = np.empty(n_blocks + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(sizes, out=offsets[1:])

        deltas = np.zeros((n_blocks, bs), dtype=np.int64)
        order = self._interleave_order(n_blocks)
        ordered_lens = eff_lens[order]
        ordered_offsets = offsets[:-1][order]
        for c, sel in _coded_groups(ordered_lens):
            row_nbytes = (bs // 8) * (1 + c)
            src = ordered_offsets[sel][:, None] + np.arange(row_nbytes, dtype=np.int64)
            rows = compressed.payload[src.ravel()].reshape(sel.size, row_nbytes)
            deltas[order[sel]] = _bitshuffle_decode(rows, c, bs)

        # Block-local prefix sum from each block's own outlier.
        codes = np.cumsum(deltas, axis=1)
        codes += compressed.outliers[:, None]
        out = dequantize(codes.reshape(-1), compressed.error_bound)
        out = out[: compressed.n]
        if zero_mask.any():
            # Skipped blocks reconstruct as exact zeros regardless of eb.
            flat_zero = np.repeat(zero_mask, bs)[: compressed.n]
            out[flat_zero] = 0.0
        return out


# ---------------------------------------------------------------------- #
# plane-major ("bit-shuffle") codec
# ---------------------------------------------------------------------- #
def _coded_groups(lens: np.ndarray):
    """``(c, positions)`` of every non-zero code length, ascending, the
    positions ascending too: one stable argsort and one ``bincount``."""
    order, counts = _sort_and_count(lens)
    start = counts[0]
    for c in range(1, len(counts)):
        if counts[c]:
            yield c, order[start : start + counts[c]]
        start += counts[c]


def _bitshuffle_encode(mags: np.ndarray, signs: np.ndarray, c: int) -> np.ndarray:
    """Encode equal-length blocks plane-major: signs, then bits 0..c−1."""
    nb, bs = mags.shape
    unit = bs // 8
    out = np.empty((nb, unit * (1 + c)), dtype=np.uint8)
    out[:, :unit] = np.packbits(signs, axis=1)
    for j in range(c):
        plane = ((mags >> np.uint32(j)) & np.uint32(1)).astype(np.uint8)
        out[:, unit * (1 + j) : unit * (2 + j)] = np.packbits(plane, axis=1)
    return out


def _bitshuffle_decode(rows: np.ndarray, c: int, block_size: int) -> np.ndarray:
    """Inverse of :func:`_bitshuffle_encode`."""
    nb = rows.shape[0]
    unit = block_size // 8
    signs = np.unpackbits(rows[:, :unit], axis=1).astype(bool)
    mags = np.zeros((nb, block_size), dtype=np.uint32)
    for j in range(c):
        plane = np.unpackbits(rows[:, unit * (1 + j) : unit * (2 + j)], axis=1)
        mags |= plane.astype(np.uint32) << np.uint32(j)
    deltas = mags.astype(np.int64)
    np.negative(deltas, out=deltas, where=signs)
    return deltas
