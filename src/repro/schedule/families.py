"""The stage half of the collective family table.

Every collective family is declared **once**: which schedule generator
its stages call, under which codec (a picklable
:class:`~repro.schedule.mp_executor.CodecSpec` kind plus slot map), and
which :class:`~repro.schedule.cost.Discipline` prices it.  This module
holds that half of each row — :data:`STAGES` maps a family name to its
ordered tuple of :class:`StageSpec` — so the tuner
(:func:`~repro.schedule.tuner.candidate_stages`) and the analytic model
(``repro.core.cost_model.model_*``) price, and the interpreter in
:mod:`repro.collectives.interpreter` runs, the *same* stage objects: what
is priced is what is executed.  The collective half of a row (span name,
validation, seed and gather rules, the plain family it degrades to) lives
in :mod:`repro.collectives` and references these tuples by name.

Adding a family is one generator in :mod:`~repro.schedule.generators`
plus one row: a ``StageSpec`` tuple here, a ``Family`` there.

A quirk of one family is a field of its stage, never a branch in the
interpreter: ``sync_sizes`` (the size-sync charge ahead of a compressed
allgather), ``slots`` (phases run unspanned or skipped), ``per_op_degrade``
(the compressed broadcast degrades rank by rank and never aborts) and
``priced`` (a pricing-only schedule variant).

A stage's schedule is a generator call written as data: the generator,
the names of the run's bound params it takes positionally (``n``,
``root``, ``chunks``, ``sessions``, ``nodemap``, ``inter``, ``network``)
and its fixed keywords.  Generators are ``lru_cache``-d, so every reader
of a row gets the same ``Schedule`` object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from ..runtime.clock import Breakdown
from .cost import (
    DOC_GATHER,
    DOC_REDUCE,
    HZ_BCAST,
    HZ_GATHER,
    HZ_REDUCE,
    PLAIN,
    Discipline,
    combine,
    schedule_cost,
)
from .generators import (
    batched_fused_reduce,
    binomial_bcast,
    direct_reduce,
    flat_gather,
    hierarchical_allreduce_schedule,
    pipelined_ring_reduce_scatter,
    rabenseifner_allreduce_schedule,
    ring_allgather,
    ring_reduce_scatter,
    select_inter_family,
)
from .ir import Schedule

__all__ = ["StageSpec", "STAGES", "priced_stages", "family_cost"]

Slots = tuple[tuple[str, "str | None"], ...]


@dataclass(frozen=True, eq=False)
class StageSpec:
    """One executor stage of a family: schedule × codec × discipline."""

    #: the (cached) schedule generator, the bound params it takes
    #: positionally, and its fixed keyword arguments
    generator: Callable[..., Schedule]
    args: tuple[str, ...]
    #: :class:`~repro.schedule.mp_executor.CodecSpec` kind
    codec: str
    discipline: Discipline
    fixed: tuple[tuple[str, Any], ...] = ()
    #: slot → span name (``None`` skips the phase, ``""`` runs it without
    #: a span); ``None`` keeps the codec's defaults
    slots: Slots | None = None
    #: charge ``SYNC_OVERHEAD_S`` per rank before the stage (sizes of the
    #: already-compressed inputs are exchanged, nothing is compressed)
    sync_sizes: bool = False
    #: every compressed delivery degrades on its own (``degrade="op"``),
    #: so a degraded outcome is a completed run, not an aborted one
    per_op_degrade: bool = False
    #: fixed keywords of the pricing-only schedule variant, where the dry
    #: run cannot charge what the executed schedule does (the broadcast
    #: decodes on the delivery store; its generator's ``finalize=True``
    #: variant prices that decode)
    priced: tuple[tuple[str, Any], ...] | None = None

    def schedule(self, priced: bool = False, **params) -> Schedule:
        """The schedule this stage executes (or, with ``priced``, is
        priced as) under the bound ``params``."""
        fixed = self.fixed
        if priced and self.priced is not None:
            fixed = self.priced
        return self.generator(
            *(params[name] for name in self.args), **dict(fixed)
        )

    @property
    def folds(self) -> bool:
        """Runs homomorphic folds, so its engine's pipeline stats mean
        something (a forward-and-decode stage has none to report)."""
        return self.codec == "homomorphic" and bool(self.discipline.fold)


# flat_gather takes an optional callable, so the generator itself is not
# cached; the table only ever calls it with hashable arguments
_flat_gather = lru_cache(maxsize=None)(flat_gather)


def _hierarchical(nodemap, inter, network):
    if inter is None:
        # the fabric-aware default: read the congestion law's family
        inter = select_inter_family(network, nodemap)
    return hierarchical_allreduce_schedule(nodemap, inter)


_N = ("n",)
_ROOTED = ("n", "root")
_PLACED = ("nodemap", "inter", "network")
#: the fused hand-off: the owned block stays compressed (no decode phase)
_FUSED = (("finalize", False),)
#: inputs arrive compressed: no setup phase at all
_GATHER_SLOTS = (("setup", None), ("finalize", "decompress"))
#: the compressed rooted reduce historically ran its gather and root
#: decode without opening spans — ``""`` keeps the trace shape intact
_UNSPANNED_REDUCE_SLOTS = (("setup", None), ("gather", ""), ("finalize", ""))
_UNSPANNED_PLAIN_SLOTS = (("setup", None), ("finalize", None), ("gather", ""))

_RS_PLAIN = StageSpec(ring_reduce_scatter, _N, "plain", PLAIN)
_AG_PLAIN = StageSpec(ring_allgather, _N, "plain", PLAIN)
_RS_DOC = StageSpec(ring_reduce_scatter, _N, "doc-reduce", DOC_REDUCE)
_AG_DOC = StageSpec(ring_allgather, _N, "doc-gather", DOC_GATHER)
_RS_HZ = StageSpec(ring_reduce_scatter, _N, "homomorphic", HZ_REDUCE)
_RS_HZ_FUSED = StageSpec(
    ring_reduce_scatter, _N, "homomorphic", HZ_REDUCE, fixed=_FUSED
)
_AG_HZ = StageSpec(
    ring_allgather, _N, "homomorphic", HZ_GATHER,
    slots=_GATHER_SLOTS, sync_sizes=True,
)
_PIPELINED_RS = StageSpec(
    pipelined_ring_reduce_scatter, ("n", "chunks"), "homomorphic", HZ_REDUCE,
    fixed=_FUSED,
)
_PIPELINED_AG = StageSpec(
    ring_allgather, ("n", "chunks"), "homomorphic", HZ_GATHER,
    slots=_GATHER_SLOTS, sync_sizes=True,
)
_GATHER_PLAIN = StageSpec(_flat_gather, _ROOTED, "plain", PLAIN)
_GATHER_PLAIN_UNSPANNED = StageSpec(
    _flat_gather, _ROOTED, "plain", PLAIN, slots=_UNSPANNED_PLAIN_SLOTS
)
_GATHER_HZ = StageSpec(
    _flat_gather, _ROOTED, "homomorphic", HZ_GATHER,
    fixed=(("finalize", True),), slots=_UNSPANNED_REDUCE_SLOTS,
)
_DIRECT_HZ = StageSpec(direct_reduce, _ROOTED, "homomorphic", HZ_REDUCE)
_BATCHED_HZ = StageSpec(
    batched_fused_reduce, ("n", "sessions", "root"), "homomorphic", HZ_REDUCE
)
_BCAST_PLAIN = StageSpec(binomial_bcast, _ROOTED, "plain", PLAIN)
_BCAST_HZ = StageSpec(
    binomial_bcast, _ROOTED, "compressed-bcast", HZ_BCAST,
    fixed=(("deliver", True),), per_op_degrade=True,
    priced=(("finalize", True),),
)
_RABENSEIFNER_PLAIN = StageSpec(
    rabenseifner_allreduce_schedule, _N, "plain", PLAIN
)
_RABENSEIFNER_HZ = StageSpec(
    rabenseifner_allreduce_schedule, _N, "homomorphic", HZ_REDUCE
)
_HIERARCHICAL_PLAIN = StageSpec(_hierarchical, _PLACED, "plain", PLAIN)
_HIERARCHICAL_HZ = StageSpec(_hierarchical, _PLACED, "homomorphic", HZ_REDUCE)

#: family name → ordered stages.  A composed family lists the very stage
#: objects of the families it nests (allreduce = reduce-scatter ∘
#: allgather); ``Family()`` checks its steps against this tuple.
STAGES: dict[str, tuple[StageSpec, ...]] = {
    "mpi_reduce_scatter": (_RS_PLAIN,),
    "mpi_allgather": (_AG_PLAIN,),
    "mpi_allreduce": (_RS_PLAIN, _AG_PLAIN),
    "ccoll_reduce_scatter": (_RS_DOC,),
    "ccoll_allgather": (_AG_DOC,),
    "ccoll_allreduce": (_RS_DOC, _AG_DOC),
    "hzccl_reduce_scatter": (_RS_HZ,),
    "hzccl_reduce_scatter_fused": (_RS_HZ_FUSED,),
    "hzccl_allgather_compressed": (_AG_HZ,),
    "hzccl_allreduce": (_RS_HZ_FUSED, _AG_HZ),
    "pipelined_reduce_scatter": (_PIPELINED_RS,),
    "pipelined_allgather": (_PIPELINED_AG,),
    "hzccl_pipelined_allreduce": (_PIPELINED_RS, _PIPELINED_AG),
    "plain_gather": (_GATHER_PLAIN,),
    "plain_gather_unspanned": (_GATHER_PLAIN_UNSPANNED,),
    "hzccl_gather": (_GATHER_HZ,),
    "mpi_reduce": (_RS_PLAIN, _GATHER_PLAIN),
    "hzccl_reduce": (_RS_HZ_FUSED, _GATHER_HZ),
    "hzccl_reduce_direct": (_DIRECT_HZ,),
    "hzccl_batched_reduce": (_BATCHED_HZ,),
    "mpi_bcast": (_BCAST_PLAIN,),
    "compressed_bcast": (_BCAST_HZ,),
    "rabenseifner_allreduce": (_RABENSEIFNER_PLAIN,),
    "hzccl_rabenseifner_allreduce": (_RABENSEIFNER_HZ,),
    "mpi_hierarchical_allreduce": (_HIERARCHICAL_PLAIN,),
    "hzccl_hierarchical_allreduce": (_HIERARCHICAL_HZ,),
}


def priced_stages(
    name: str, **params
) -> tuple[tuple[Schedule, Discipline], ...]:
    """The ``(schedule, discipline)`` pairs family ``name`` is priced as.

    ``params`` are the bound params the stages' generator calls read
    (``n`` always).  Rooted families price the canonical ``root=0``
    schedules — their generators are root-isomorphic.
    """
    bound = {"root": 0, "inter": None, "network": None, **params}
    return tuple(
        (stage.schedule(priced=True, **bound), stage.discipline)
        for stage in STAGES[name]
    )


def family_cost(
    name: str,
    total_bytes: int,
    rates,
    network,
    multithread: bool = False,
    thread_speedup: float = 6.0,
    **params,
) -> Breakdown:
    """Price family ``name``: the sum of its stages' analytic dry runs —
    the §III-C closed forms fall out of walking the rows the interpreter
    runs."""
    return combine(
        *(
            schedule_cost(
                schedule, discipline, total_bytes, rates, network,
                multithread, thread_speedup,
            )
            for schedule, discipline in priced_stages(
                name, network=network, **params
            )
        )
    )
