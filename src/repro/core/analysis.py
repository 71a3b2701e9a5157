"""Closed-form cost and error analysis (paper §III-C).

The paper derives its co-design advantage analytically:

* Reduce_scatter — ``T_CColl − T_hZCCL = (N−1)(DPR + CPT − HPR) − CPR −
  DPR`` per block (§III-C1): the win is ``(N−1)``-amplified whenever one
  homomorphic fold is cheaper than a decompress-plus-add.
* Allreduce — ``T_CColl − T_hZCCL = (N−1)(DPR − HPR) + (N−1)·CPT``
  (§III-C2).

The operation counts behind those identities are not written out here:
:func:`reduce_scatter_counts` / :func:`allreduce_counts` count them off
the dry run of the family rows the interpreter executes — each stage
priced under its codec's one charge table
(:func:`~repro.schedule.families.priced_stages`), its block operations
summed per bucket by :func:`~repro.schedule.cost.block_counts` — so they
cannot drift from what runs.  This module evaluates the identities on a
:class:`~repro.core.cost_model.CostRates` instance (so the break-even
condition can be inspected directly), and provides the companion *error*
analysis: worst-case and RMS error bounds for the three kernels, which the
integration tests validate against Monte-Carlo functional runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from ..schedule.cost import block_counts
from ..schedule.families import priced_stages
from ..utils.validation import ensure_positive, ensure_positive_int
from .cost_model import CostRates

__all__ = [
    "OperationCounts",
    "reduce_scatter_counts",
    "allreduce_counts",
    "cost_advantage_reduce_scatter",
    "cost_advantage_allreduce",
    "hzccl_breakeven_hpr",
    "ErrorBounds",
    "error_bounds",
]

#: kernels with ``<kernel>_reduce_scatter`` / ``<kernel>_allreduce`` rows
_KERNELS = ("mpi", "ccoll", "hzccl")


@dataclass(frozen=True)
class OperationCounts:
    """Per-block operation counts of one collective (per rank)."""

    cpr: int
    dpr: int
    cpt: int
    hpr: int

    def cost(self, rates: CostRates, block_bytes: float) -> float:
        """Total compute seconds implied by the counts."""
        return block_bytes * (
            self.cpr * rates.cpr_s_per_byte
            + self.dpr * rates.dpr_s_per_byte
            + self.cpt * rates.cpt_s_per_byte
            + self.hpr * rates.hpr_s_per_byte
        ) + (self.cpr + self.dpr + self.cpt + self.hpr) * rates.op_overhead_s


def _row_counts(op: str, n: int, kernel: str) -> OperationCounts:
    """Block operations per bucket of family ``<kernel>_<op>`` at ``n``
    ranks: each round's busiest rank, summed over rounds and stages."""
    ensure_positive_int(n, "n")
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    counts: Counter[str] = Counter()
    for schedule, table in priced_stages(f"{kernel}_{op}", n=n):
        counts.update(block_counts(schedule, table))
    return OperationCounts(
        cpr=counts["CPR"], dpr=counts["DPR"], cpt=counts["CPT"],
        hpr=counts["HPR"],
    )


def reduce_scatter_counts(n: int, kernel: str) -> OperationCounts:
    """§III-C1 operation counts for Reduce_scatter: C-Coll
    ``(N−1)(CPR + DPR + CPT)``, hZCCL ``N·CPR + (N−1)·HPR + DPR``."""
    return _row_counts("reduce_scatter", n, kernel)


def allreduce_counts(n: int, kernel: str) -> OperationCounts:
    """§III-C2 operation counts for Allreduce (fused for hZCCL): C-Coll
    ``N·CPR + 2(N−1)·DPR + (N−1)·CPT``, hZCCL ``N·CPR + (N−1)(HPR + DPR)``.
    """
    return _row_counts("allreduce", n, kernel)


def cost_advantage_reduce_scatter(
    n: int, rates: CostRates, block_bytes: float
) -> float:
    """``T_CColl − T_hZCCL`` for Reduce_scatter (positive ⇒ hZCCL wins).

    Identical to the paper's ``(N−1)(DPR + CPT − HPR) − 1·CPR − 1·DPR``
    (evaluated per block, ignoring the shared network term).
    """
    cc = reduce_scatter_counts(n, "ccoll").cost(rates, block_bytes)
    hz = reduce_scatter_counts(n, "hzccl").cost(rates, block_bytes)
    return cc - hz


def cost_advantage_allreduce(n: int, rates: CostRates, block_bytes: float) -> float:
    """``T_CColl − T_hZCCL`` for Allreduce: ``(N−1)(DPR − HPR) + (N−1)·CPT``."""
    cc = allreduce_counts(n, "ccoll").cost(rates, block_bytes)
    hz = allreduce_counts(n, "hzccl").cost(rates, block_bytes)
    return cc - hz


def hzccl_breakeven_hpr(rates: CostRates) -> float:
    """The HPR rate (s/byte) at which hZCCL stops beating C-Coll.

    From the asymptotic (large-``N``) form of both advantages: hZCCL wins
    iff ``HPR < DPR + CPT``.  Returns that threshold so callers can test a
    measured rate set: ``rates.hpr_s_per_byte < hzccl_breakeven_hpr(rates)``
    is the paper's co-design precondition.  (This is exactly the condition
    our pure-NumPy substrate violates — see EXPERIMENTS.md.)
    """
    return rates.dpr_s_per_byte + rates.cpt_s_per_byte


# ---------------------------------------------------------------------- #
# error propagation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ErrorBounds:
    """Worst-case and statistical error bounds for one collective result.

    ``max_error`` is the deterministic guarantee; ``rms_estimate`` models
    each quantisation error as independent Uniform(−eb, eb), giving RMS
    ``eb · sqrt(k/3)`` for ``k`` accumulated quantisations.
    """

    kernel: str
    n: int
    error_bound: float
    max_error: float
    rms_estimate: float


def error_bounds(n: int, error_bound: float, kernel: str) -> ErrorBounds:
    """Error bounds for an ``n``-rank SUM collective at absolute bound eb.

    * ``mpi`` — exact up to float32 summation rounding: both bounds 0 in
      the quantisation model.
    * ``hzccl`` — each input quantised exactly once, reductions exact:
      worst case ``N·eb``; RMS ``eb·sqrt(N/3)``.
    * ``ccoll`` — the running partial is requantised every round, adding
      one more bounded error per round on top of the ``N`` input
      quantisations: worst case ``(2N − 3)·eb`` (N inputs + N−2 requantise
      steps before the final block is produced, with the final round's
      requantisation... folded conservatively); RMS
      ``eb·sqrt((2N − 3)/3)``.
    """
    ensure_positive_int(n, "n")
    ensure_positive(error_bound, "error_bound")
    if kernel == "mpi":
        return ErrorBounds(kernel, n, error_bound, 0.0, 0.0)
    if kernel == "hzccl":
        worst = n * error_bound
        return ErrorBounds(
            kernel, n, error_bound, worst, error_bound * math.sqrt(n / 3.0)
        )
    if kernel == "ccoll":
        k = max(2 * n - 3, 1)
        return ErrorBounds(
            kernel, n, error_bound, k * error_bound, error_bound * math.sqrt(k / 3.0)
        )
    raise ValueError(f"unknown kernel {kernel!r}")
