"""Seeded input generators: the program only ever receives arrays.

Two field shapes, chosen for how hZ-dynamic routes their 32-element
blocks (paper Table V):

* ``dense`` — a random walk: every block is non-constant, so every
  homomorphic fold takes pipeline 4 (decode, add, re-encode) and the
  compression ratio stays near 3x;
* ``quiet`` — a zero background with Ricker-wavelet bursts over a
  quarter of the field: most blocks are constant in one or both
  operands, so folds skip (pipeline 1) or copy bytes verbatim
  (pipelines 2/3) and the ratio is an order of magnitude higher.
"""

from __future__ import annotations

import numpy as np

from .spec import POOL_SETS, WORKLOADS, Workload

#: bursts per quiet field and the share of the field they cover
_BURSTS = 32
_BURST_COVER = 0.25
_WORKLOAD_INDEX = {w.name: i for i, w in enumerate(WORKLOADS)}


def dense(rng: np.random.Generator, n: int) -> np.ndarray:
    """float32 cumulative sum of N(0, 0.02) steps."""
    return np.cumsum(rng.normal(0.0, 0.02, n)).astype(np.float32)


def quiet(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zeros with ``_BURSTS`` Ricker bursts covering 25 % of the field.

    One burst of fixed width sits at a random place inside each of
    ``_BURSTS`` equal strata with a random amplitude, so the covered
    share (and with it the compression ratio and the op time) varies
    little from seed to seed while where the ranks' bursts overlap
    stays random.
    """
    out = np.zeros(n, dtype=np.float64)
    stratum = n // _BURSTS
    half = int(_BURST_COVER * stratum) // 2
    x = (np.arange(-half, half) / (half / 4.0)) ** 2
    wavelet = (1.0 - 2.0 * x) * np.exp(-x)
    for b in range(_BURSTS):
        centre = b * stratum + int(rng.integers(half, stratum - half))
        out[centre - half:centre + half] = rng.uniform(0.05, 1.0) * wavelet
    return out.astype(np.float32)


GENERATORS = {"dense": dense, "quiet": quiet}


def make_pool(workload: Workload, seed: int) -> list[list[np.ndarray]]:
    """``POOL_SETS`` input sets, each one array per rank.

    Every array has its own stream keyed on (seed, workload, set, rank),
    so a seed reproduces the pool byte for byte and two workloads never
    share data.
    """
    gen = GENERATORS[workload.data]
    return [
        [
            gen(
                np.random.default_rng(
                    [seed, _WORKLOAD_INDEX[workload.name], s, r]
                ),
                workload.elements,
            )
            for r in range(workload.n_ranks)
        ]
        for s in range(POOL_SETS)
    ]


def reference(arrays: list[np.ndarray]) -> np.ndarray:
    """The exact reduction: float64 sum over ranks."""
    return np.sum(np.stack(arrays).astype(np.float64), axis=0)
