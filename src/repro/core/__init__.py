"""Core public API: facade, configuration, and the §III-C cost model."""

from .analysis import (
    ErrorBounds,
    OperationCounts,
    allreduce_counts,
    cost_advantage_allreduce,
    cost_advantage_reduce_scatter,
    error_bounds,
    hzccl_breakeven_hpr,
    reduce_scatter_counts,
)
from .api import HZCCL
from .config import DEFAULT_CONFIG, CollectiveConfig
from .cost_model import (
    PAPER_BROADWELL,
    CostRates,
    calibrated_config,
    matched_network,
)

__all__ = [
    "HZCCL",
    "CollectiveConfig",
    "DEFAULT_CONFIG",
    "CostRates",
    "PAPER_BROADWELL",
    "matched_network",
    "calibrated_config",
    "OperationCounts",
    "reduce_scatter_counts",
    "allreduce_counts",
    "cost_advantage_reduce_scatter",
    "cost_advantage_allreduce",
    "hzccl_breakeven_hpr",
    "ErrorBounds",
    "error_bounds",
]
