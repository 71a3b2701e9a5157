"""Ultra-fast fixed-length encoding (paper §III-B3).

fZ-light encodes each small block of integer prediction deltas with a
*fixed* number of bits ``c`` — the bit width of the largest magnitude in the
block — preceded by one sign bit per element.  The paper's layout is kept:

* ``c == 0`` ⇒ a **constant block**; nothing is stored beyond the code
  length itself (this is what makes hZ-dynamic's pipeline 1 nearly free).
* ``c > 0`` ⇒ ``block_size`` sign bits, then the **complete bytes** of every
  element's magnitude (``c // 8`` byte planes), then the **residual bits**
  (``c % 8`` per element) bit-packed — the "ultra-fast bit-shifting" scheme
  of the paper, which maps directly onto NumPy shift-and-mask kernels here.

With ``block_size = 32`` (the paper default) a non-constant block occupies
exactly ``4 + 4·c`` bytes, so the whole payload is byte-aligned and every
group of equal-``c`` blocks can be encoded/decoded with a handful of
vectorised operations.

This module is the stable entry point; the actual kernels live in
:mod:`repro.kernels` behind a backend dispatch layer (reference NumPy
backend, optional Numba-JIT backend — select with
``repro.kernels.set_backend``/``use_backend`` or the
``REPRO_KERNEL_BACKEND`` environment variable).  All backends emit
byte-identical streams, so backend choice never affects the wire format or
the homomorphic invariants.

Everything here is *block-shape agnostic*: callers hand in a 2-D
``(n_blocks, block_size)`` array of integer deltas and get back per-block
code lengths plus a single contiguous payload.  The subset variants used by
the homomorphic pipelines (decode/encode only the block indices a pipeline
touches) avoid materialising the full prediction array — the memory-
efficiency point the paper makes about hZ-dynamic vs. static homomorphic
compression.
"""

from __future__ import annotations

import numpy as np

from ..kernels.dispatch import get_backend
from ..kernels.plan import (  # noqa: F401  (canonical home; re-exported API)
    StreamLayout,
    block_payload_nbytes,
    payload_offsets,
    required_bits,
)
from ..utils.validation import ensure_positive_int

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "MAX_CODE_LENGTH",
    "required_bits",
    "block_payload_nbytes",
    "payload_offsets",
    "encode_blocks",
    "decode_blocks",
    "decode_selected",
    "encode_into",
    "ensure_codable",
]

DEFAULT_BLOCK_SIZE = 32
#: Magnitudes are stored in at most 32 bits, mirroring the 32-bit unsigned
#: integer arrays of fZ-light/cuSZp.  Exceeding it means the error bound is
#: too tight for the data's dynamic range (same failure mode as the C code).
MAX_CODE_LENGTH = 32


def _check_block_size(block_size: int) -> int:
    if type(block_size) is int and block_size > 0 and not block_size % 8:
        return block_size
    block_size = ensure_positive_int(block_size, "block_size")
    if block_size % 8:
        raise ValueError(f"block_size must be a multiple of 8, got {block_size}")
    return block_size


def _check_deltas(deltas: np.ndarray, block_size: int) -> np.ndarray:
    if type(deltas) is not np.ndarray:
        deltas = np.asarray(deltas)
    if deltas.ndim != 2 or deltas.shape[1] != block_size:
        raise ValueError(
            f"deltas must have shape (n_blocks, {block_size}), got {deltas.shape}"
        )
    return deltas


def encode_blocks(
    deltas: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-length-encode ``(n_blocks, block_size)`` integer deltas.

    Returns
    -------
    code_lengths : ``(n_blocks,)`` uint8
    payload : contiguous uint8 array; block *i* occupies
        ``payload[offsets[i]:offsets[i+1]]`` with ``offsets`` from
        :func:`payload_offsets`.

    Raises
    ------
    OverflowError
        If any magnitude needs more than :data:`MAX_CODE_LENGTH` bits.
    """
    block_size = _check_block_size(block_size)
    deltas = _check_deltas(deltas, block_size)
    return get_backend().encode_blocks(deltas, block_size)


def decode_blocks(
    code_lengths: np.ndarray,
    payload: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    offsets: np.ndarray | None = None,
    out: np.ndarray | None = None,
    layout: StreamLayout | None = None,
) -> np.ndarray:
    """Inverse fixed-length encoding for the full block set.

    Constant blocks decode to all-zero deltas.  Returns
    ``(n_blocks, block_size)``, int32 when every code length fits (halving
    the memory traffic of the downstream prefix sums), int64 otherwise.

    Parameters
    ----------
    offsets : optional precomputed :func:`payload_offsets` for the stream
        (e.g. ``CompressedField.offsets``); passing it skips the redundant
        prefix sum.
    out : optional ``(n_blocks, block_size)`` int32/int64 buffer to decode
        into (int32 only when every code length ≤ 31); callers on the
        homomorphic hot path use this to recycle an accumulator-sized
        scratch buffer across operands.
    layout : optional :class:`~repro.kernels.plan.StreamLayout` of the
        stream (``CompressedField.layout``); the grouped kernels walk it
        instead of looking it up by the code lengths.
    """
    block_size = _check_block_size(block_size)
    return get_backend().decode_blocks(
        code_lengths, payload, block_size, offsets=offsets, out=out, layout=layout
    )


def decode_selected(
    indices: np.ndarray,
    code_lengths: np.ndarray,
    offsets: np.ndarray,
    payload: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode only ``indices`` blocks (pipeline-4 gather path).

    ``offsets`` must be the array from :func:`payload_offsets` for the full
    stream.  ``indices`` may be unsorted and may contain duplicates; rows
    come back in the order of ``indices``.  Returns
    ``(len(indices), block_size)`` int64 deltas — written into ``out``
    (same shape/dtype, fully overwritten) when provided, so hot-path
    callers can recycle an arena buffer across calls.
    """
    block_size = _check_block_size(block_size)
    return get_backend().decode_selected(
        indices, code_lengths, offsets, payload, block_size, out=out
    )


def encode_into(
    deltas: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`encode_blocks` but also returns the payload offsets.

    Convenience for callers (the homomorphic engine, the wire format) that
    need the offsets anyway — the backend computes them as part of laying
    out the payload, so nothing is recomputed.  Dispatches to the backend's
    ``classify_encode`` — the fused single-pass classification + encode on
    backends that ship one (Numba), the two-pass reference otherwise.
    """
    block_size = _check_block_size(block_size)
    deltas = _check_deltas(deltas, block_size)
    return get_backend().classify_encode(deltas, block_size)


def ensure_codable(deltas: np.ndarray, bound: int) -> int:
    """Check that ``deltas`` (``|deltas| <= bound``) fit the coder.

    Returns ``bound`` when it already proves every magnitude fits in
    :data:`MAX_CODE_LENGTH` bits, and otherwise the true peak magnitude
    after one pass; raises ``OverflowError`` — the encoder's error — when
    that peak does not fit.  A caller holding deltas it has not encoded
    yet raises here, where an encode would have.
    """
    if bound < 1 << MAX_CODE_LENGTH:
        return bound
    # abs(-2**63) stays negative, so the range test catches it too
    peak = int(np.abs(deltas).max(initial=0))
    if not 0 <= peak < 1 << MAX_CODE_LENGTH:
        raise OverflowError(
            "prediction delta exceeds 32-bit magnitude; the error bound is "
            "too tight for this data's dynamic range"
        )
    return peak
