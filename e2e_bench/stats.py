"""Sample statistics: the median and the tail-percentile rule."""

from __future__ import annotations

import numpy as np

from .spec import MIN_BEYOND


class TooFewSamples(ValueError):
    """A tail percentile was asked of a sample too small to support it."""


def median(samples) -> float:
    if len(samples) == 0:
        raise TooFewSamples("median of an empty sample")
    return float(np.median(samples))


def tail_percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile, refused unless ``min_beyond`` samples lie
    beyond it (p90 needs 100 samples): a tail read off fewer points is
    one slow op, not a percentile."""
    beyond = len(samples) * (100.0 - q) / 100.0
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} needs {min_beyond} samples beyond it; "
            f"{len(samples)} samples leave {beyond:.1f}"
        )
    return float(np.percentile(samples, q))
