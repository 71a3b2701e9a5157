"""Analytic cost model for the collectives (paper §III-C formulas).

The figure-scale experiments (64–512 nodes, up to 646 MB messages) cannot
be executed functionally in Python in reasonable time, and the absolute
speed of our NumPy kernels differs from the paper's C/OpenMP kernels.  The
model closes both gaps:

* the **per-round cost formulas** are the paper's own (Section III-C):
  C-Coll Reduce_scatter pays ``(N−1)(CPR+DPR+CPT)``, hZCCL pays
  ``N·CPR + (N−1)·HPR + DPR``, etc.  They are not written out here:
  :func:`~repro.schedule.families.family_cost` prices any family-table
  row by name, as an analytic dry run of the very schedules the
  interpreter executes, and the closed forms fall out of that walk
  (``family_cost("hzccl_allreduce", total_bytes, rates, network, n=64)``);
* the **charge rates** (seconds per input byte for CPR/DPR/HPR/CPT) come
  either from :meth:`CostRates.measure` — measured on *this* machine with
  *this* repo's kernels on a data sample — or from
  :data:`PAPER_BROADWELL`, rates back-derived from the paper's published
  throughput numbers;
* the **network** is the α–β–congestion model.  When combining *measured*
  Python rates with the network, use :func:`matched_network` to scale link
  bandwidth by the substrate-speed ratio, preserving the compute:network
  balance of the paper's testbed (the balance, not the absolute GB/s, is
  what decides who wins — DESIGN.md §1).

Thread modes: rates are single-thread; multi-thread divides the
compute-family rates by ``thread_speedup``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..compression.fzlight import FZLight
from ..homomorphic.hzdynamic import HZDynamic
from ..runtime.network import NetworkModel
from ..utils.validation import ensure_positive, ensure_positive_int

__all__ = [
    "CostRates",
    "PAPER_BROADWELL",
    "matched_network",
    "calibrated_config",
]


@dataclass(frozen=True)
class CostRates:
    """Per-byte single-thread charge rates plus the compression ratio.

    All rates are seconds per byte of *uncompressed* input processed;
    ``ratio`` converts message sizes.  ``hpr_s_per_byte`` is the time to
    homomorphically fold one incoming compressed block, per byte of the
    block's uncompressed size.
    """

    cpr_s_per_byte: float
    dpr_s_per_byte: float
    hpr_s_per_byte: float
    cpt_s_per_byte: float
    ratio: float
    #: Fixed cost per kernel invocation (setup, thread fork/join).  This is
    #: what makes Reduce_scatter speedups *dip* at very high node counts
    #: (Fig. 10): blocks shrink with N while the per-op count grows, so the
    #: compression-frequency overhead the paper describes starts to bite.
    op_overhead_s: float = 1e-4
    #: Per-operand decode (inverse fixed-length encode) and one-shot encode
    #: rates behind the fused k-way fold: a fused reduce of ``k`` operands
    #: charges ``k·IFE + 1·FE`` per byte instead of ``(k−1)·HPR``.  When
    #: left ``None`` they are derived from ``hpr_s_per_byte`` so that the
    #: pairwise case is unchanged: ``fused_hpr_s_per_byte(2) == hpr``.
    ife_s_per_byte: float | None = None
    fe_s_per_byte: float | None = None

    def __post_init__(self) -> None:
        for name in ("cpr_s_per_byte", "dpr_s_per_byte", "hpr_s_per_byte", "cpt_s_per_byte"):
            ensure_positive(getattr(self, name), name)
        ensure_positive(self.ratio, "ratio")
        if self.op_overhead_s < 0:
            raise ValueError("op_overhead_s must be >= 0")
        if self.ife_s_per_byte is None:
            object.__setattr__(self, "ife_s_per_byte", self.hpr_s_per_byte / 4.0)
        if self.fe_s_per_byte is None:
            object.__setattr__(self, "fe_s_per_byte", self.hpr_s_per_byte / 2.0)
        ensure_positive(self.ife_s_per_byte, "ife_s_per_byte")
        ensure_positive(self.fe_s_per_byte, "fe_s_per_byte")

    def fused_hpr_s_per_byte(self, k: int) -> float:
        """Per-byte charge for one fused ``k``-way homomorphic fold.

        The fused kernel decodes each operand's deltas once and re-encodes
        the accumulated sum once — ``k·IFE + 1·FE`` — versus the pairwise
        fold's ``(k−1)·(2·IFE + FE) = (k−1)·HPR``.  With the derived
        default split the two agree at ``k = 2`` and the fused charge grows
        sub-linearly in ``k`` relative to the fold.
        """
        ensure_positive_int(k, "k")
        return k * self.ife_s_per_byte + self.fe_s_per_byte

    def scaled(self, thread_speedup: float) -> "CostRates":
        """Multi-thread rates (compute family divided by the speedup)."""
        ensure_positive(thread_speedup, "thread_speedup")
        return replace(
            self,
            cpr_s_per_byte=self.cpr_s_per_byte / thread_speedup,
            dpr_s_per_byte=self.dpr_s_per_byte / thread_speedup,
            hpr_s_per_byte=self.hpr_s_per_byte / thread_speedup,
            cpt_s_per_byte=self.cpt_s_per_byte / thread_speedup,
            ife_s_per_byte=self.ife_s_per_byte / thread_speedup,
            fe_s_per_byte=self.fe_s_per_byte / thread_speedup,
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def measure(
        cls,
        sample_a: np.ndarray,
        sample_b: np.ndarray,
        error_bound: float,
        block_size: int = 32,
        n_threadblocks: int = 18,
        repeats: int = 3,
    ) -> "CostRates":
        """Measure this repo's kernels on an operand pair.

        The sample should be a representative slice of the experiment's
        dataset — rates (and the ratio) are data-dependent, exactly like
        the paper's per-dataset throughput tables.
        """
        import time

        a = np.ascontiguousarray(sample_a, dtype=np.float32).ravel()
        b = np.ascontiguousarray(sample_b, dtype=np.float32).ravel()
        comp = FZLight(block_size=block_size, n_threadblocks=n_threadblocks)
        engine = HZDynamic(collect_stats=False)
        nbytes = a.nbytes

        def best(fn) -> float:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        ca = comp.compress(a, abs_eb=error_bound)
        cb = comp.compress(b, abs_eb=error_bound)
        da = comp.decompress(ca)
        db = comp.decompress(cb)
        t_cpr = best(lambda: comp.compress(a, abs_eb=error_bound))
        t_dpr = best(lambda: comp.decompress(ca))
        t_hpr = best(lambda: engine.add(ca, cb))
        t_cpt = best(lambda: np.add(da, db))
        # the fused k-way fold's IFE/FE split, measured on the raw codec
        from ..compression.encoding import decode_blocks, encode_blocks

        deltas = decode_blocks(ca.code_lengths, ca.payload, block_size)
        t_ife = best(lambda: decode_blocks(ca.code_lengths, ca.payload, block_size))
        t_fe = best(lambda: encode_blocks(deltas, block_size))
        return cls(
            cpr_s_per_byte=t_cpr / nbytes,
            dpr_s_per_byte=t_dpr / nbytes,
            hpr_s_per_byte=t_hpr / nbytes,
            cpt_s_per_byte=t_cpt / nbytes,
            ratio=ca.compression_ratio,
            ife_s_per_byte=t_ife / nbytes,
            fe_s_per_byte=t_fe / nbytes,
        )


#: Rates back-derived from the paper's Broadwell numbers (single-thread).
#:
#: Derivation, all at abs eb 1e-4 on the RTM data.  The kernels are
#: memory-bound, so one core sustains a disproportionate share of the
#: socket's bandwidth (Table IV shows fZ-light at 59–94 % of STREAM peak
#: with 36 threads; 18-thread scaling is therefore ~6×, the default
#: ``thread_speedup``, not 18×):
#:   * fZ-light compression: 59 % of one-core STREAM share ≈ 5 GB/s ST
#:   * fZ-light decompression: ~90 % memory efficiency ≈ 12 GB/s ST
#:   * hZ-dynamic: Table VI Sim-1 64.3 GB/s over two inputs at 36T
#:     → 32.2 GB/s per input byte → ST ≈ 32.2/3 ≈ 10.7 GB/s (HPR is
#:     dominated by the lightweight copy pipelines, which scale worse
#:     than 6× because they are already at the copy-bandwidth floor)
#:   * float add: one-core STREAM add ≈ 8 GB/s
#:   * ratio 9.21 (Table VI, Sim-1, 1e-4)
#:   * per-invocation overhead 100 µs (OpenMP fork/join + buffer setup;
#:     this is what reproduces the high-node-count speedup dip of Fig. 10)
PAPER_BROADWELL = CostRates(
    cpr_s_per_byte=1.0 / 5.0e9,
    dpr_s_per_byte=1.0 / 12.0e9,
    hpr_s_per_byte=1.0 / 10.7e9,
    cpt_s_per_byte=1.0 / 8.0e9,
    ratio=9.21,
)


def calibrated_config(
    sample: np.ndarray,
    error_bound: float,
    multithread: bool = False,
    reference: "CostRates | None" = None,
):
    """Build a :class:`~repro.core.config.CollectiveConfig` whose network is
    matched to this machine's kernel speed.

    Measures the kernels on ``sample`` (split into an operand pair) and
    scales the Omni-Path model so the compute:network balance matches the
    paper's testbed — the right setting for *functional* collective runs
    whose simulated times should be meaningful (see DESIGN.md §1).
    """
    from ..runtime.network import OMNIPATH_100G
    from .config import CollectiveConfig

    flat = np.ascontiguousarray(sample, dtype=np.float32).ravel()
    half = flat.size // 2
    if half < 1024:
        raise ValueError("sample too small to calibrate (need ≥ 2048 elements)")
    rates = CostRates.measure(flat[:half], flat[half : 2 * half], error_bound, repeats=2)
    network = matched_network(
        OMNIPATH_100G, rates, reference or PAPER_BROADWELL
    )
    return CollectiveConfig(
        error_bound=error_bound, network=network, multithread=multithread
    )


def matched_network(
    network: NetworkModel, measured: CostRates, reference: CostRates = PAPER_BROADWELL
) -> NetworkModel:
    """Scale link bandwidth so compute:network balance matches the testbed.

    When rates are *measured* on this machine (Python kernels, one stream),
    running them against a full-speed 100 Gbps model would make compression
    look uniformly useless — the opposite end of the substitution error
    would make it look uniformly great.  Scaling bandwidth by the ratio of
    measured to reference compression speed keeps the balance that decides
    every crossover in Figures 9–12.
    """
    scale = reference.cpr_s_per_byte / measured.cpr_s_per_byte
    if not 1e-6 <= scale <= 1e3:
        raise ValueError(f"implausible substrate scale {scale}")
    return replace(network, bandwidth_Bps=network.bandwidth_Bps * scale)
