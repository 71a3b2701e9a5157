"""Image stacking — the paper's end-to-end use case (§IV-E, Table VII).

Stacking combines many noisy single exposures of one scene into a
high-SNR image; with one exposure per node the combine *is* an Allreduce
(Gurhem et al.).  This module builds a synthetic deep-sky scene, hands each
simulated rank its own noisy exposure, runs the stack through any of the
three collective families, and reports both the timing breakdown
(Table VII) and the numerical/visual fidelity against the uncompressed MPI
stack (Fig. 13: PSNR / NRMSE).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compression.metrics import nrmse as nrmse_metric
from ..compression.metrics import psnr as psnr_metric
from ..core.api import HZCCL
from ..core.config import CollectiveConfig
from ..runtime.clock import Breakdown
from ..utils.rng import make_rng
from ..utils.validation import ensure_positive_int

__all__ = ["make_scene", "make_exposures", "stack_images", "StackingResult"]

METHODS = ("mpi", "ccoll", "hzccl")


def make_scene(
    shape: tuple[int, int] = (512, 512), n_objects: int = 60, seed: int | None = None
) -> np.ndarray:
    """Synthetic deep-sky scene: point sources + diffuse objects + sky glow."""
    ensure_positive_int(n_objects, "n_objects")
    rng = make_rng(seed)
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    scene = np.zeros(shape, dtype=np.float32)
    for _ in range(n_objects):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        brightness = float(10.0 ** rng.uniform(0.5, 3.0))
        sigma = float(rng.uniform(0.8, 6.0))
        scene += brightness * np.exp(
            -(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        )
    # Sky background gradient (moonlight / airglow).
    scene += 5.0 + 3.0 * (xx / w) + 2.0 * (yy / h)
    return scene


def make_exposures(
    n_ranks: int,
    shape: tuple[int, int] = (512, 512),
    noise_sigma: float = 4.0,
    seed: int | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One clean scene + ``n_ranks`` independently-noisy exposures of it."""
    ensure_positive_int(n_ranks, "n_ranks")
    scene = make_scene(shape, seed=seed)
    rng = make_rng(None if seed is None else seed + 1)
    exposures = [
        (scene + rng.normal(0.0, noise_sigma, shape)).astype(np.float32)
        for _ in range(n_ranks)
    ]
    return scene, exposures


@dataclass
class StackingResult:
    """Outcome of one stacking run.

    ``stacked`` is the per-pixel mean over exposures; quality metrics are
    computed against the reference stack (uncompressed MPI, i.e. the exact
    float mean) when one is supplied.
    """

    method: str
    stacked: np.ndarray
    breakdown: Breakdown
    bytes_on_wire: int
    psnr: float = float("inf")
    nrmse: float = 0.0

    @property
    def total_time(self) -> float:
        return self.breakdown.total_time


def stack_images(
    exposures: list[np.ndarray],
    method: str = "hzccl",
    config: CollectiveConfig | None = None,
    reference: np.ndarray | None = None,
) -> StackingResult:
    """Stack exposures with the chosen collective family.

    Parameters
    ----------
    exposures : one image per simulated rank (equal shapes).
    method : ``"mpi"`` (uncompressed), ``"ccoll"`` (DOC) or ``"hzccl"`` —
        the facade's allreduce kernel, so the run goes through
        ``plan()``/``execute()`` and honours the config's fault plan and
        retry policy.
    reference : optional exact stack to score PSNR/NRMSE against.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not exposures:
        raise ValueError("need at least one exposure")
    config = config or CollectiveConfig()
    shape = exposures[0].shape
    n = len(exposures)
    flat = [np.ascontiguousarray(e, dtype=np.float32).ravel() for e in exposures]
    res = HZCCL(config).allreduce(flat, kernel=method)

    stacked = (res.outputs[0].astype(np.float64) / n).astype(np.float32)
    stacked = stacked.reshape(shape)
    out = StackingResult(
        method=method,
        stacked=stacked,
        breakdown=res.breakdown,
        bytes_on_wire=res.bytes_on_wire,
    )
    if reference is not None:
        out.psnr = psnr_metric(reference, stacked)
        out.nrmse = nrmse_metric(reference, stacked)
    return out
