"""Higher-level homomorphic operations built on hZ-dynamic's linearity.

The paper demonstrates ``sum`` and notes the principles extend to other
reductions.  Everything *linear with integer coefficients* is exact in the
compressed domain:

* :func:`linear_combination` — ``Σ wᵢ·xᵢ`` for integer weights ``wᵢ``;
* :func:`mean_of` — the exact ensemble mean, obtained without any division
  in the compressed domain: the integer code sum is dequantised on a grid
  ``N×`` finer (``eb/N``), so ``mean = (2·eb/N)·Σq`` exactly;
* :func:`difference_energy` — ‖x − y‖² of two compressed operands, a
  common convergence/validation statistic, computed via one homomorphic
  subtract and one decompression.

Non-linear reductions (min/max/prod) are *not* homomorphic in this
representation; :func:`supported_ops` documents the boundary.
"""

from __future__ import annotations

import numpy as np

from ..compression.common import dequantize, lorenzo_decode
from ..compression.encoding import decode_blocks
from ..compression.format import CompressedField, blocks_to_deltas
from ..compression.fzlight import FZLight
from .hzdynamic import HZDynamic

__all__ = [
    "supported_ops",
    "linear_combination",
    "mean_of",
    "difference_energy",
]


def supported_ops() -> dict[str, bool]:
    """Which reduction semantics survive the compressed domain."""
    return {
        "sum": True,
        "subtract": True,
        "integer-weighted linear combination": True,
        "mean (exact, via grid refinement)": True,
        "min": False,
        "max": False,
        "prod": False,
    }


def linear_combination(
    fields: list[CompressedField],
    weights: list[int],
    engine: HZDynamic | None = None,
) -> CompressedField:
    """Exact ``Σ wᵢ·xᵢ`` on compressed operands, integer weights only.

    One fused :meth:`HZDynamic.reduce_fused` call: every operand is
    decoded once and the sum encoded once.
    """
    if len(fields) != len(weights):
        raise ValueError("fields and weights must have the same length")
    engine = engine or HZDynamic(collect_stats=False)
    return engine.reduce_fused(fields, weights)


def _decode_codes(field: CompressedField) -> np.ndarray:
    """Integer quantisation codes of a compressed field (no dequantise)."""
    from ..compression.format import PREDICTOR_LORENZO_1D

    if field.predictor != PREDICTOR_LORENZO_1D:
        raise ValueError(
            "code-level access is implemented for 1-D Lorenzo streams; "
            "decompress N-D streams and operate in the float domain"
        )
    structure = field.structure
    blocks = decode_blocks(field.code_lengths, field.payload, field.block_size)
    deltas = blocks_to_deltas(blocks, structure)
    return lorenzo_decode(deltas, field.outliers, structure.bounds)


def mean_of(fields: list[CompressedField], engine: HZDynamic | None = None) -> np.ndarray:
    """Exact ensemble mean of compressed operands.

    The homomorphic sum's codes are ``Σ qᵢ``; dequantising them with a
    bound of ``eb/N`` yields ``(2·eb/N)·Σqᵢ = mean(dequantised inputs)``
    exactly — no compressed-domain division, no extra rounding beyond the
    single float32 store.
    """
    if not fields:
        raise ValueError("need at least one field")
    engine = engine or HZDynamic(collect_stats=False)
    total = engine.reduce(list(fields))
    codes = _decode_codes(total)
    return dequantize(codes, total.error_bound / len(fields))


def difference_energy(
    a: CompressedField,
    b: CompressedField,
    engine: HZDynamic | None = None,
) -> float:
    """‖x̂_a − x̂_b‖₂² computed through the compressed domain.

    One homomorphic subtraction + one decode; exact in the integer codes
    (the energy of the code difference on the quantisation grid).
    """
    engine = engine or HZDynamic(collect_stats=False)
    diff = engine.subtract(a, b)
    values = FZLight(
        block_size=diff.block_size, n_threadblocks=diff.n_threadblocks
    ).decompress(diff)
    return float(np.dot(values.astype(np.float64), values.astype(np.float64)))
