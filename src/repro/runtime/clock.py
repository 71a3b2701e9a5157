"""Virtual time accounting for the simulated cluster.

Every rank owns a :class:`VirtualClock`; each charge lands in a named
bucket.  The buckets follow the paper's breakdown vocabulary (Figure 2,
Table VII):

* ``CPR`` — compression
* ``DPR`` — decompression
* ``CPT`` — computation on decompressed data (the reduction itself)
* ``HPR`` — homomorphic processing of one compressed block
* ``MPI`` — communication
* ``OTHER`` — framework overhead (size synchronisation, bookkeeping)
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BUCKETS", "VirtualClock", "Breakdown"]

BUCKETS = ("CPR", "DPR", "CPT", "HPR", "MPI", "OTHER")


@dataclass
class VirtualClock:
    """Accumulates per-bucket virtual seconds for one rank."""

    buckets: dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in BUCKETS}
    )

    def charge(self, bucket: str, seconds: float) -> None:
        """Add ``seconds`` to ``bucket`` (must be one of :data:`BUCKETS`)."""
        if bucket not in self.buckets:
            raise KeyError(f"unknown bucket {bucket!r}; valid: {BUCKETS}")
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.buckets[bucket] += seconds

    @property
    def total(self) -> float:
        return sum(self.buckets.values())

    def copy(self) -> "VirtualClock":
        return VirtualClock(dict(self.buckets))


@dataclass
class Breakdown:
    """Aggregated timing breakdown for a whole collective run.

    ``total_time`` is the bulk-synchronous critical-path estimate (sum over
    rounds of the slowest rank plus the round's communication); the buckets
    are rank-averaged, which is how the paper reports its percentage
    breakdowns.
    """

    buckets: dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in BUCKETS}
    )
    total_time: float = 0.0

    @property
    def doc_time(self) -> float:
        """The DOC-related share: decompression + computation + compression."""
        return (
            self.buckets["CPR"]
            + self.buckets["DPR"]
            + self.buckets["CPT"]
            + self.buckets["HPR"]
        )

    @property
    def mpi_time(self) -> float:
        return self.buckets["MPI"]

    def percentages(self) -> dict[str, float]:
        """Bucket shares of the rank-averaged total, in percent."""
        denom = sum(self.buckets.values())
        if denom == 0:
            return {b: 0.0 for b in BUCKETS}
        return {b: 100.0 * v / denom for b, v in self.buckets.items()}

    @classmethod
    def from_clocks(
        cls, clocks: list[VirtualClock], total_time: float
    ) -> "Breakdown":
        """Rank-average the clocks into one report."""
        n = max(len(clocks), 1)
        buckets = {b: sum([c.buckets[b] for c in clocks]) / n for b in BUCKETS}
        return cls(buckets=buckets, total_time=total_time)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pct = self.percentages()
        parts = " ".join(f"{b}={pct[b]:.1f}%" for b in BUCKETS if pct[b] > 0.05)
        return f"total={self.total_time * 1e3:.3f} ms ({parts})"
