"""Timing helpers for the benchmark harness."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["TimedResult", "best_of", "best_of_each", "throughput_gbps"]


@dataclass(frozen=True)
class TimedResult:
    """Best-of-N timing of one kernel."""

    seconds: float
    repeats: int

    def throughput_Bps(self, nbytes: int) -> float:
        return nbytes / self.seconds


def best_of(fn: Callable[[], object], repeats: int = 3, warmup: int = 1) -> TimedResult:
    """Best wall time of ``repeats`` runs after ``warmup`` throwaway runs.

    Best-of (not mean) is the right statistic for throughput claims on a
    shared machine: every source of interference only ever adds time.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return TimedResult(seconds=min(times), repeats=repeats)


def best_of_each(
    cases: dict[str, Callable[[], object]], repeats: int = 3, warmup: int = 1
) -> dict[str, float]:
    """Best wall time of each case, the cases taking turns.

    For rows that are read as ratios of one another: a host whose speed
    drifts during the run (a shared box drifts by tens of percent within
    minutes) slows every case alike, where back-to-back :func:`best_of`
    runs would charge the drift to whichever case ran during it.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        for fn in cases.values():
            fn()
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(repeats):
        for name, fn in cases.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def throughput_gbps(nbytes: int, seconds: float) -> float:
    """Bytes over seconds, in GB/s (decimal, like the paper)."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return nbytes / 1e9 / seconds
