"""Quantisation and prediction primitives shared by all compressors.

This module implements the two linear stages of the fZ-light pipeline
(paper §III-B2):

* **Quantisation** — ``q = round(x / (2·eb))`` so that reconstruction
  ``x̂ = 2·eb·q`` satisfies ``|x − x̂| ≤ eb``.  This is the *only* lossy
  stage; everything downstream (prediction, encoding, homomorphic sums) is
  exact, which is why hZ-dynamic "does not introduce additional errors
  beyond those inherent to the original compression process".
* **1-D Lorenzo prediction** — per thread-block deltas
  ``d[i] = q[i] − q[i−1]`` with the thread-block's first quantised value
  kept aside as the **outlier**.  Both maps are linear in ``q``, which is
  exactly the property the homomorphic pipelines exploit.
"""

from __future__ import annotations

import numpy as np

from ..utils.chunking import threadblock_bounds
from ..utils.validation import ensure_float_array, ensure_positive

__all__ = [
    "resolve_error_bound",
    "quantize",
    "code_dtype",
    "dequantize",
    "lorenzo_encode",
    "lorenzo_decode",
]


def resolve_error_bound(
    data: np.ndarray,
    abs_eb: float | None = None,
    rel_eb: float | None = None,
) -> float:
    """Turn a user error-bound specification into an absolute bound.

    Exactly one of ``abs_eb`` / ``rel_eb`` must be given.  A relative bound
    is scaled by the field's value range (max − min), the SDRBench / SZ
    convention the paper uses for its REL columns.  A zero-range field with
    a relative bound resolves to a tiny positive bound so quantisation stays
    well defined.
    """
    if (abs_eb is None) == (rel_eb is None):
        raise ValueError("specify exactly one of abs_eb or rel_eb")
    if abs_eb is not None:
        return ensure_positive(abs_eb, "abs_eb")
    rel = ensure_positive(rel_eb, "rel_eb")
    data = np.asarray(data)
    value_range = float(data.max()) - float(data.min())
    if value_range == 0.0:
        return np.finfo(np.float32).tiny
    return rel * value_range


def quantize(data: np.ndarray, error_bound: float) -> np.ndarray:
    """Quantise float data to integer codes with ``|x − x̂| ≤ error_bound``.

    Returns int32 codes when the dynamic range allows (halving the memory
    traffic of every downstream stage — the fZ-light "lightweight" path),
    int64 otherwise.  float64 intermediates keep the rounding exact where
    float32 would already be integer-inexact.
    """
    data = ensure_float_array(data)
    error_bound = ensure_positive(error_bound, "error_bound")
    scaled = np.multiply(data, 1.0 / (2.0 * error_bound), dtype=np.float64)
    dtype = code_dtype(max(abs(float(scaled.max())), abs(float(scaled.min()))))
    np.rint(scaled, out=scaled)
    return scaled.astype(dtype)


def code_dtype(peak: float) -> type:
    """Narrowest integer dtype for codes of magnitude up to ``peak``.

    ``peak`` is the largest ``|x| / (2·eb)`` before rounding.  Raises
    ``OverflowError`` when the codes would not fit int64 at all.
    """
    if peak >= 2**62:
        raise OverflowError("error bound too small: quantised codes overflow int64")
    # < 2**30 leaves headroom so consecutive-code differences fit int32 too.
    return np.int32 if peak < 2**30 else np.int64


def dequantize(codes: np.ndarray, error_bound: float) -> np.ndarray:
    """Reconstruct float32 data from quantisation codes."""
    scaled = np.multiply(codes, 2.0 * error_bound, dtype=np.float64)
    return scaled.astype(np.float32)


def lorenzo_encode(
    codes: np.ndarray, n_threadblocks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused per-thread-block Lorenzo prediction.

    Parameters
    ----------
    codes : 1-D int64 quantisation codes.
    n_threadblocks : number of large chunks (one per worker thread).

    Returns
    -------
    deltas : integer array (same dtype as ``codes``), same length; the
        element at each thread-block start is 0 (its value lives in
        ``outliers``).
    outliers : ``(n_threadblocks,)`` int64 — first code of each thread-block
        (0 for empty thread-blocks, which occur when ``codes.size <
        n_threadblocks``).
    bounds : the ``(n_threadblocks + 1,)`` boundary offsets used.
    """
    codes = np.ascontiguousarray(codes)
    bounds = threadblock_bounds(codes.size, n_threadblocks)
    deltas = np.empty_like(codes)
    deltas[0] = 0
    np.subtract(codes[1:], codes[:-1], out=deltas[1:])
    starts = bounds[:-1]
    nonempty = starts < bounds[1:]
    outliers = np.zeros(n_threadblocks, dtype=np.int64)
    outliers[nonempty] = codes[starts[nonempty]]
    deltas[starts[nonempty]] = 0
    return deltas, outliers, bounds


def lorenzo_decode(
    deltas: np.ndarray, outliers: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Invert :func:`lorenzo_encode` (per-thread-block prefix sums).

    A single global ``cumsum`` plus a per-thread-block base correction
    reconstructs every chunk without a Python-level loop over elements:
    within a thread-block starting at ``s``, ``q[i] = outlier + cs[i] −
    cs[s]`` because the delta at ``s`` itself is stored as 0.
    """
    # int64 accumulator: partial sums can exceed int32 even when every
    # individual code fits (the per-thread-block base correction restores
    # the true values afterwards).
    cs = np.cumsum(deltas, dtype=np.int64)
    starts = bounds[:-1]
    lengths = np.diff(bounds)
    nonempty = lengths > 0
    base = np.zeros_like(outliers)
    base[nonempty] = outliers[nonempty] - cs[starts[nonempty]]
    return cs + np.repeat(base, lengths)
