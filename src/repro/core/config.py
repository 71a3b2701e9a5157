"""Configuration for hZCCL collectives and the simulated testbed."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..runtime.faults import FaultPlan, RetryPolicy
from ..runtime.network import OMNIPATH_100G, NetworkModel
from ..utils.validation import ensure_positive, ensure_positive_int

__all__ = ["CollectiveConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class CollectiveConfig:
    """Knobs shared by every collective run.

    Defaults follow the paper's experimental setup (§IV-A): absolute error
    bound 1e-4, 32-element blocks, 18 compression threads (one Broadwell
    socket) inside collectives, 100 Gbps Omni-Path.

    ``fault_plan`` (``None`` = healthy fabric) injects seeded faults on
    every delivery; ``retry`` governs the timeout/backoff retransmission
    schedule (see DESIGN.md §8).

    ``tuning_table_path`` points autotuned collectives
    (``HZCCL.allreduce(tune=True)``, or any ``plan()`` of a ``tune=True``
    request) at a persisted :class:`~repro.schedule.tuner.TuningTable`; ``None``
    falls back to ``$REPRO_TUNING_TABLE``, then to live enumeration
    (see DESIGN.md §13).
    """

    error_bound: float = 1e-4  # absolute, like the paper's collectives
    block_size: int = 32
    n_threadblocks: int = 18
    multithread: bool = False
    thread_speedup: float = 6.0  # MT-vs-ST compressor scaling (DESIGN.md §1)
    network: NetworkModel = field(default_factory=lambda: OMNIPATH_100G)
    fault_plan: FaultPlan | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    tuning_table_path: str | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.error_bound, "error_bound")
        ensure_positive_int(self.n_threadblocks, "n_threadblocks")
        ensure_positive(self.thread_speedup, "thread_speedup")
        if self.block_size % 8 or self.block_size <= 0:
            raise ValueError("block_size must be a positive multiple of 8")
        if self.tuning_table_path is not None and (
            not isinstance(self.tuning_table_path, str)
            or not self.tuning_table_path
        ):
            raise ValueError("tuning_table_path must be None or a non-empty string")

    def with_mode(self, multithread: bool) -> "CollectiveConfig":
        """Same config in the other thread mode."""
        return replace(self, multithread=multithread)

    def with_faults(
        self, plan: FaultPlan | None, retry: RetryPolicy | None = None
    ) -> "CollectiveConfig":
        """Same config with a fault plan (and optionally a retry policy)."""
        return replace(
            self, fault_plan=plan, retry=retry if retry is not None else self.retry
        )


DEFAULT_CONFIG = CollectiveConfig()
