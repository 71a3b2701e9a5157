"""Optional CuPy (GPU) kernel backend — the gZCCL-port seam.

Importing this module raises :class:`ImportError` when ``cupy`` is not
installed — the dispatch layer records that as "backend unavailable"
(``pip install repro[gpu]`` on a CUDA host).  The backend is registered
behind the same :mod:`repro.kernels.dispatch` contract as NumPy and Numba,
so the executor, ``HZDynamic.reduce_fused`` and every collective family
can select it with zero call-site changes — that seam, plus the staging
helpers below, is the point of this module.

**Stub status.**  gZCCL ports the fZ-light kernels to fused GPU passes
(classification, serialisation and the k-way accumulate each as one
device sweep).  This backend currently implements:

* block *classification* on the device — per-block max magnitude, code
  lengths and payload offsets run as CuPy reductions over the staged
  deltas (the metadata pass, which is where the GPU layout decisions
  live);
* payload *serialisation / deserialisation* on the host via the shared
  scalar loops of :mod:`repro.kernels._kernels_py` — the same loops the
  Numba backend JIT-compiles, so streams are byte-identical to every
  other backend by construction.

Replacing the host loops with ``cupy.RawKernel`` ports of the fused
sweeps is the intended follow-up; the dispatch contract (and the parity
suite, which exercises this backend whenever CuPy is importable) is
already in place, so that change stays local to this file.

Because every call stages through host memory, this backend is **never**
auto-selected — choose it explicitly via ``set_backend("cupy")``,
``use_backend("cupy")`` or ``REPRO_KERNEL_BACKEND=cupy``.
"""

from __future__ import annotations

import numpy as np

from . import _kernels_py
from .plan import payload_offsets

try:  # pragma: no cover - exercised via dispatch availability tests
    import cupy
except ImportError as exc:  # pragma: no cover
    raise ImportError(
        "the 'cupy' backend requires the cupy package "
        "(pip install repro[gpu] on a CUDA host)"
    ) from exc

__all__ = [
    "NAME",
    "encode_blocks",
    "encode_with_offsets",
    "decode_blocks",
    "decode_selected",
]

NAME = "cupy"

MAX_CODE_LENGTH = 32

_OVERFLOW_MSG = (
    "prediction delta exceeds 32-bit magnitude; the error bound is too "
    "tight for this data's dynamic range"
)


def _device_classify(deltas: np.ndarray) -> tuple[np.ndarray, cupy.ndarray]:
    """Stage deltas and run the classification pass on the device.

    Returns the host code lengths and the staged device array (kept so a
    future fused serialisation kernel reads it without a second upload).
    """
    d_deltas = cupy.asarray(deltas)
    max_mag = cupy.maximum(d_deltas.max(axis=1), -d_deltas.min(axis=1))
    if int(max_mag.max()) >= (1 << MAX_CODE_LENGTH):
        raise OverflowError(_OVERFLOW_MSG)
    # bits(m) = frexp exponent, exactly as the shared plan helper computes
    code_lengths = cupy.frexp(max_mag.astype(cupy.float64))[1].astype(
        cupy.uint8
    )
    return cupy.asnumpy(code_lengths), d_deltas


def encode_with_offsets(
    deltas: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    deltas = np.ascontiguousarray(deltas)
    nb, bs = deltas.shape
    if nb == 0:
        lens = np.zeros(0, dtype=np.uint8)
        return lens, np.empty(0, dtype=np.uint8), payload_offsets(lens, bs)
    code_lengths, _d_deltas = _device_classify(deltas)
    offsets = payload_offsets(code_lengths, bs)
    payload = np.empty(int(offsets[-1]), dtype=np.uint8)
    # host serialisation (RawKernel port pending; see module docstring)
    _kernels_py.encode_from_deltas_loop(deltas, code_lengths, offsets, payload)
    return code_lengths, payload, offsets


def encode_blocks(
    deltas: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    code_lengths, payload, _ = encode_with_offsets(deltas, block_size)
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
    _kernels_py.decode_into_loop(
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
    _kernels_py.decode_into_loop(
        indices,
        np.asarray(code_lengths, dtype=np.uint8),
        np.asarray(offsets, dtype=np.int64),
        payload,
        out,
        sign_buf,
    )
    return out
