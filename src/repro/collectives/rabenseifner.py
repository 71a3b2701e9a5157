"""Rabenseifner's Allreduce (recursive halving + recursive doubling).

MPICH's other large-message Allreduce (Thakur et al. 2005): instead of a
``N − 1``-round ring, reduce-scatter by *recursive vector halving* and
allgather by *recursive doubling* — ``2·log2 N`` rounds total, moving the
same total volume but paying far less latency.  The paper evaluates the
ring form; this module adds the Rabenseifner form for both the plain and
the homomorphic kernels so the harness can show that the co-design is
algorithm-agnostic: blocks are pre-compressed once and folded with
hZ-dynamic regardless of which schedule moves them.

The halving/doubling round structure is generated once by
:func:`~repro.schedule.rabenseifner_allreduce_schedule`; both rows below
run that same schedule, differing only in the payload codec (plain float
adds vs. pre-compress / homomorphic fold / decompress).

Rank counts must be powers of two (the classic formulation; MPICH's
non-power-of-two pre-step is out of scope and rejected explicitly).
"""

from __future__ import annotations

from . import rules
from .interpreter import Family


RABENSEIFNER_ALLREDUCE = Family("rabenseifner_allreduce", **rules.ALLREDUCE)
# Degrade: rerun on the plain Rabenseifner schedule.
HZCCL_RABENSEIFNER_ALLREDUCE = Family(
    "hzccl_rabenseifner_allreduce", **rules.ALLREDUCE,
    fallback=RABENSEIFNER_ALLREDUCE,
)
