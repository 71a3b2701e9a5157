"""Optional Numba-JIT kernel backend (fused parallel hot paths).

Importing this module raises :class:`ImportError` when ``numba`` is not
installed — the dispatch layer treats that as "backend unavailable" and
falls back to NumPy.  Install the extra with ``pip install repro[perf]``.

The JIT kernels are the scalar loops from :mod:`repro.kernels._kernels_py`,
compiled in ``nopython`` mode with on-disk caching, ``nogil`` (FZLight's
pool workers run them truly in parallel) and ``parallel=True`` so the
per-block outer loops fan out over thread-blocks with ``prange``:

* ``classify_encode`` — the fused single-pass encode: one sweep computes
  the block classification (code lengths) and a second ``prange`` sweep
  emits the compressed stream straight from the deltas.  No ``abs`` array,
  no sign mask, no per-group gathers — the temporaries the NumPy backend
  pays for vanish entirely (the HoSZp-style classify+encode fusion).
* ``reduce_fused`` — the k-way homomorphic accumulate: each block is
  decoded, weighted, accumulated *and* re-classified in one visit across
  all ``k`` operands (gZCCL's fused GPU pass, on CPU threads), then one
  fused encode emits the result stream.
* ``decode_blocks`` / ``decode_selected`` — the per-block deserialise
  loops, as before.

Streams are byte-identical to the NumPy backend; the parity suite pins
this, and the uncompiled loops are exercised by CI even without numba.
"""

from __future__ import annotations

import numpy as np

from . import _kernels_py
from .arena import get_arena
from .plan import payload_offsets

try:  # pragma: no cover - exercised via dispatch availability tests
    import numba
except ImportError as exc:  # pragma: no cover
    raise ImportError(
        "the 'numba' backend requires the numba package "
        "(pip install repro[perf])"
    ) from exc

__all__ = [
    "NAME",
    "encode_blocks",
    "encode_with_offsets",
    "classify_encode",
    "decode_blocks",
    "decode_selected",
    "reduce_fused",
]

NAME = "numba"

MAX_CODE_LENGTH = 32

_OVERFLOW_MSG = (
    "prediction delta exceeds 32-bit magnitude; the error bound is too "
    "tight for this data's dynamic range"
)

_jit = numba.njit(cache=True, nogil=True)
_pjit = numba.njit(cache=True, nogil=True, parallel=True)

_encode_payload_loop = _jit(_kernels_py.encode_payload_loop)
_decode_into_loop = _jit(_kernels_py.decode_into_loop)
_classify_blocks_loop = _pjit(_kernels_py.classify_blocks_loop)
_encode_from_deltas_loop = _pjit(_kernels_py.encode_from_deltas_loop)
_reduce_accumulate_loop = _pjit(_kernels_py.reduce_accumulate_loop)


def classify_encode(
    deltas: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused single-pass classification + encode (see module docstring)."""
    deltas = np.ascontiguousarray(deltas)
    nb, bs = deltas.shape
    code_lengths = np.empty(nb, dtype=np.uint8)
    if nb == 0:
        return code_lengths, np.empty(0, dtype=np.uint8), payload_offsets(
            code_lengths, bs
        )
    _classify_blocks_loop(deltas, code_lengths)
    if int(code_lengths.max(initial=0)) > MAX_CODE_LENGTH:
        raise OverflowError(_OVERFLOW_MSG)
    offsets = payload_offsets(code_lengths, bs)
    payload = np.empty(int(offsets[-1]), dtype=np.uint8)
    _encode_from_deltas_loop(deltas, code_lengths, offsets, payload)
    return code_lengths, payload, offsets


#: The fused kernel *is* this backend's encode — the two entry points are
#: one function here (the NumPy backend keeps them distinct because its
#: two-pass path is the bit-layout reference).
encode_with_offsets = classify_encode


def encode_blocks(
    deltas: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    code_lengths, payload, _ = classify_encode(deltas, block_size)
    return code_lengths, payload


def decode_blocks(
    code_lengths: np.ndarray,
    payload: np.ndarray,
    block_size: int,
    offsets: np.ndarray | None = None,
    out: np.ndarray | None = None,
    layout=None,  # the grouped NumPy kernels' stream layout: no use here
) -> np.ndarray:
    code_lengths = np.asarray(code_lengths, dtype=np.uint8)
    nb = code_lengths.size
    if offsets is None:
        offsets = payload_offsets(code_lengths, block_size)
    max_c = int(code_lengths.max(initial=0))
    if out is None:
        dtype = np.int32 if max_c <= 31 else np.int64
        out = np.empty((nb, block_size), dtype=dtype)
    else:
        if out.shape != (nb, block_size):
            raise ValueError(
                f"out has shape {out.shape}, expected {(nb, block_size)}"
            )
        if out.dtype == np.int32 and max_c > 31:
            raise ValueError("int32 out cannot hold 32-bit magnitudes")
        if out.dtype not in (np.int32, np.int64):
            raise ValueError(f"out dtype must be int32/int64, got {out.dtype}")
    indices = np.arange(nb, dtype=np.int64)
    sign_buf = np.empty(block_size, dtype=np.uint8)
    _decode_into_loop(
        indices,
        code_lengths,
        np.asarray(offsets, dtype=np.int64),
        payload,
        out,
        sign_buf,
    )
    return out


def decode_selected(
    indices: np.ndarray,
    code_lengths: np.ndarray,
    offsets: np.ndarray,
    payload: np.ndarray,
    block_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if out is None:
        out = np.empty((indices.size, block_size), dtype=np.int64)
    elif out.shape != (indices.size, block_size) or out.dtype != np.int64:
        raise ValueError(
            f"out must be {(indices.size, block_size)} int64, got "
            f"{out.shape} {out.dtype}"
        )
    if indices.size == 0:
        return out
    sign_buf = np.empty(block_size, dtype=np.uint8)
    _decode_into_loop(
        indices,
        np.asarray(code_lengths, dtype=np.uint8),
        np.asarray(offsets, dtype=np.int64),
        payload,
        out,
        sign_buf,
    )
    return out


def reduce_fused(
    lens_mat: np.ndarray,
    offs_mat: np.ndarray,
    payloads: list[np.ndarray],
    weights: np.ndarray,
    block_size: int,
    acc: np.ndarray | None = None,
    track: bool = False,
    layouts=None,  # ignored, as in decode_blocks
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Single-sweep k-way homomorphic accumulate (dense strategy).

    Operand payloads are concatenated once (a straight ``memcpy``) so the
    JIT kernel sees one flat buffer; the ``prange`` block loop then decodes
    and accumulates all ``k`` operands per block in one visit and writes
    the result's code length, and a second fused pass serialises the
    output.  ``zero_after`` (returned when ``track``) carries the
    pairwise-fold "partial sum is constant" flags the pipeline statistics
    are derived from — computed in the same sweep, not as extra passes.
    """
    k, nb = lens_mat.shape
    lens_mat = np.ascontiguousarray(lens_mat, dtype=np.uint8)
    offs_mat = np.ascontiguousarray(offs_mat, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    if acc is None:
        acc = np.empty((nb, block_size), dtype=np.int64)
    elif acc.shape != (nb, block_size) or acc.dtype != np.int64:
        raise ValueError(
            f"acc must be {(nb, block_size)} int64, got {acc.shape} {acc.dtype}"
        )
    sizes = np.array([p.size for p in payloads], dtype=np.int64)
    bases = np.zeros(k, dtype=np.int64)
    np.cumsum(sizes[:-1], out=bases[1:])
    if k == 1:
        payload_cat = np.ascontiguousarray(payloads[0])
    else:
        payload_cat = get_arena().take("rf.cat", int(sizes.sum()), np.uint8)
        for j in range(k):
            payload_cat[bases[j] : bases[j] + sizes[j]] = payloads[j]
    out_lengths = np.empty(nb, dtype=np.uint8)
    zero_after = np.empty((k, nb), dtype=np.uint8)
    _reduce_accumulate_loop(
        lens_mat,
        offs_mat,
        payload_cat,
        bases,
        weights,
        acc,
        out_lengths,
        zero_after,
        track,
    )
    if int(out_lengths.max(initial=0)) > MAX_CODE_LENGTH:
        raise OverflowError(_OVERFLOW_MSG)
    offsets = payload_offsets(out_lengths, block_size)
    payload = np.empty(int(offsets[-1]), dtype=np.uint8)
    _encode_from_deltas_loop(acc, out_lengths, offsets, payload)
    return out_lengths, payload, offsets, zero_after.view(np.bool_) if track else None


def warm_jit_cache(block_size: int = 32) -> None:
    """Compile every JIT kernel on a tiny workload (CI cache warming)."""
    deltas = np.arange(2 * block_size, dtype=np.int64).reshape(2, block_size)
    deltas[0] = 0
    lens, payload, offsets = classify_encode(deltas, block_size)
    decode_blocks(lens, payload, block_size, offsets=offsets)
    decode_selected(
        np.arange(2, dtype=np.int64), lens, offsets, payload, block_size
    )
    reduce_fused(
        np.stack([lens, lens]),
        np.stack([offsets, offsets]),
        [payload, payload],
        np.ones(2, dtype=np.int64),
        block_size,
        track=True,
    )
