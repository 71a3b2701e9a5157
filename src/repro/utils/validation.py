"""Input-validation helpers shared across the library.

Centralising the checks keeps error messages consistent and lets hot paths
call a single cheap function instead of sprinkling ad-hoc ``if`` chains.
All validators raise :class:`ValueError` / :class:`TypeError` with messages
that name the offending argument, matching NumPy's conventions.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "as_float_array",
    "ensure_float_array",
    "ensure_positive",
    "ensure_positive_int",
    "ensure_power_of_two",
    "ensure_in",
    "ensure_same_shape",
]


def ensure_float_array(data: Any, name: str = "data") -> np.ndarray:
    """Return ``data`` as a contiguous 1-D float32 array.

    Accepts any array-like of a real floating dtype.  Multi-dimensional
    inputs are flattened in C order (the compressor is 1-D Lorenzo, like
    fZ-light/cuSZp, so the linearisation order is part of the format).

    Raises
    ------
    TypeError
        If ``data`` is not array-like or has a non-floating dtype.
    ValueError
        If the array is empty or contains non-finite values.
    """
    arr = as_float_array(data, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def as_float_array(data: Any, name: str = "data") -> np.ndarray:
    """:func:`ensure_float_array` without the finiteness pass, for a caller
    that reads every value's range anyway and checks it there."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "fiu":
        raise TypeError(
            f"{name} must be a numeric array, got dtype {arr.dtype!r}"
        )
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def ensure_positive(value: float, name: str) -> float:
    """Validate that a scalar is strictly positive and finite."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def ensure_positive_int(value: int, name: str) -> int:
    """Validate that a scalar is a strictly positive integer."""
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return ivalue


def ensure_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two."""
    ivalue = ensure_positive_int(value, name)
    if ivalue & (ivalue - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return ivalue


def ensure_in(value: Any, options: Sequence[Any], name: str) -> Any:
    """Validate membership in a finite option set."""
    if value not in options:
        raise ValueError(f"{name} must be one of {list(options)}, got {value!r}")
    return value


def ensure_same_shape(a: np.ndarray, b: np.ndarray, what: str = "operands") -> None:
    """Validate that two arrays have identical shapes."""
    if a.shape != b.shape:
        raise ValueError(f"{what} must have the same shape: {a.shape} vs {b.shape}")
