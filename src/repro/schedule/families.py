"""The stage half of the collective family table.

Every collective family is declared **once**: which schedule generator
its stages call and under which codec kind (a
:data:`~repro.schedule.codecs.CODECS` key, built on either plane by a
picklable :class:`~repro.schedule.mp_executor.CodecSpec`).  A stage is
schedule × codec: it names no charge table of its own.  What prices it
is its codec's one declared :class:`~repro.schedule.cost.Discipline`,
with the stage's ``slots`` when it overrides them
(:attr:`StageSpec.discipline`) — the table the codec executes under.
This module holds that half of each row — :data:`STAGES` maps a family
name to its ordered tuple of :class:`StageSpec` — so the tuner
(:func:`~repro.schedule.tuner.candidate_stages`), the analytic model
(:func:`family_cost`) and the §III-C operation counts
(``repro.core.analysis``) price, and the interpreter in
:mod:`repro.collectives.interpreter` runs, the *same* stage objects: what
is priced is what is executed.  The collective half of a row (span name,
validation, seed and gather rules, the plain family it degrades to) lives
in :mod:`repro.collectives` and references these tuples by name.

Adding a family is one generator in :mod:`~repro.schedule.generators`
plus one row: a ``StageSpec`` tuple here, a ``Family`` there.

A quirk of one family is a field of its stage, never a branch in the
interpreter: ``sync_sizes`` (the size-sync charge ahead of a compressed
allgather) and ``slots`` (phases skipped or renamed — a skipped phase is
skipped by the dry run too; every phase that runs opens a span).  Every
stage is priced as the very schedule it runs.

A stage's schedule is a generator call written as data: the generator,
the names of the run's bound params it takes positionally (``n``,
``root``, ``chunks``, ``sessions``, ``nodemap``, ``inter``, ``network``)
and its fixed keywords.  Generators are ``lru_cache``-d, so every reader
of a row gets the same ``Schedule`` object.  :data:`DEFAULT_PARAMS` holds
the one set of defaults every reader — the interpreter, the pricer and
the multi-process bench — binds under the caller's params.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from ..runtime.clock import Breakdown
from ..utils.validation import ensure_positive, ensure_positive_int
from .codecs import discipline_of
from .cost import Discipline, combine, schedule_cost
from .generators import (
    batched_fused_reduce,
    binomial_bcast,
    flat_gather,
    hierarchical_allreduce_schedule,
    pipelined_ring_reduce_scatter,
    rabenseifner_allreduce_schedule,
    ring_allgather,
    ring_reduce_scatter,
    select_inter_family,
)
from .ir import Schedule

__all__ = [
    "StageSpec", "STAGES", "DEFAULT_PARAMS", "priced_stages", "family_cost",
]

Slots = tuple[tuple[str, "str | None"], ...]


@dataclass(frozen=True, eq=False)
class StageSpec:
    """One executor stage of a family: schedule × codec."""

    #: the (cached) schedule generator, the bound params it takes
    #: positionally, and its fixed keyword arguments
    generator: Callable[..., Schedule]
    args: tuple[str, ...]
    #: :data:`~repro.schedule.codecs.CODECS` kind
    codec: str
    fixed: tuple[tuple[str, Any], ...] = ()
    #: slot → span name (``None`` skips the phase); ``None`` keeps the
    #: codec's defaults
    slots: Slots | None = None
    #: charge ``SYNC_OVERHEAD_S`` per rank before the stage (sizes of the
    #: already-compressed inputs are exchanged, nothing is compressed)
    sync_sizes: bool = False

    def arguments(self, params) -> tuple:
        """The generator's positional arguments, read from the bound
        ``params``; a ``ValueError`` names each one that is missing."""
        missing = [name for name in self.args if name not in params]
        if missing:
            raise ValueError(
                f"schedule generator {self.generator.__name__} needs the "
                f"unbound parameter(s) {', '.join(map(repr, missing))}"
            )
        return tuple(params[name] for name in self.args)

    def schedule(self, **params) -> Schedule:
        """The schedule this stage executes, and is priced as, under the
        bound ``params``."""
        return self.generator(*self.arguments(params), **dict(self.fixed))

    @cached_property
    def discipline(self) -> Discipline:
        """The table this stage is priced and run under: its codec's, with
        the stage's ``slots`` if it names any.  One object per stage, so
        every pricing of the stage reads the same table."""
        return discipline_of(self.codec, self.slots)

    def folds(self, schedule: Schedule) -> bool:
        """Whether ``schedule`` (this stage's, as run) folds homomorphically,
        so the engine's pipeline stats mean something (a forward-and-decode
        stage has none to report)."""
        return self.codec == "homomorphic" and any(
            any(comm.action == "fold" for comm in rnd.comms)
            or any(op.kind in ("fold", "fold_fused") for op in rnd.ops)
            for rnd in schedule.rounds()
        )


def _hierarchical_allreduce(nodemap, inter, network):
    if inter is None:
        # the fabric-aware default: read the congestion law's family
        inter = select_inter_family(network, nodemap)
    return hierarchical_allreduce_schedule(nodemap, inter)


_N = ("n",)
_ROOTED = ("n", "root")
_PLACED = ("nodemap", "inter", "network")
#: the fused hand-off: the owned block stays compressed (no decode phase)
_FUSED = (("finalize", False),)
#: inputs arrive compressed: no setup phase at all (the ring allgather's
#: prepare ops are neither run nor priced)
_GATHER_SLOTS = (("setup", None), ("finalize", "decompress"))

_RS_PLAIN = StageSpec(ring_reduce_scatter, _N, "plain")
_AG_PLAIN = StageSpec(ring_allgather, _N, "plain")
_RS_DOC = StageSpec(ring_reduce_scatter, _N, "doc-reduce")
_AG_DOC = StageSpec(ring_allgather, _N, "doc-gather")
_RS_HZ = StageSpec(ring_reduce_scatter, _N, "homomorphic")
_RS_HZ_FUSED = StageSpec(ring_reduce_scatter, _N, "homomorphic", fixed=_FUSED)
_AG_HZ = StageSpec(
    ring_allgather, _N, "homomorphic", slots=_GATHER_SLOTS, sync_sizes=True,
)
_PIPELINED_RS = StageSpec(
    pipelined_ring_reduce_scatter, ("n", "chunks"), "homomorphic",
    fixed=_FUSED,
)
_PIPELINED_AG = StageSpec(
    ring_allgather, ("n", "chunks"), "homomorphic",
    slots=_GATHER_SLOTS, sync_sizes=True,
)
_GATHER_PLAIN = StageSpec(flat_gather, _ROOTED, "plain")
_GATHER_HZ = StageSpec(flat_gather, _ROOTED, "homomorphic", slots=_GATHER_SLOTS)
#: the fused-fold incast: the direct rooted reduce is its one-session run
_FUSED_REDUCE_HZ = StageSpec(
    batched_fused_reduce, ("n", "sessions", "root"), "homomorphic"
)
_BCAST_PLAIN = StageSpec(binomial_bcast, _ROOTED, "plain")
_BCAST_HZ = StageSpec(binomial_bcast, _ROOTED, "compressed-bcast")
_RABENSEIFNER_PLAIN = StageSpec(rabenseifner_allreduce_schedule, _N, "plain")
_RABENSEIFNER_HZ = StageSpec(
    rabenseifner_allreduce_schedule, _N, "homomorphic"
)
_HIERARCHICAL_PLAIN = StageSpec(_hierarchical_allreduce, _PLACED, "plain")
_HIERARCHICAL_HZ = StageSpec(_hierarchical_allreduce, _PLACED, "homomorphic")

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
    "hzccl_gather": (_GATHER_HZ,),
    "mpi_reduce": (_RS_PLAIN, _GATHER_PLAIN),
    "hzccl_reduce": (_RS_HZ_FUSED, _GATHER_HZ),
    "hzccl_reduce_direct": (_FUSED_REDUCE_HZ,),
    "hzccl_batched_reduce": (_FUSED_REDUCE_HZ,),
    "mpi_bcast": (_BCAST_PLAIN,),
    "compressed_bcast": (_BCAST_HZ,),
    "rabenseifner_allreduce": (_RABENSEIFNER_PLAIN,),
    "hzccl_rabenseifner_allreduce": (_RABENSEIFNER_HZ,),
    "mpi_hierarchical_allreduce": (_HIERARCHICAL_PLAIN,),
    "hzccl_hierarchical_allreduce": (_HIERARCHICAL_HZ,),
}


#: the bound params a run, a price or an MP case takes when its caller
#: binds none: the canonical root (rooted generators are root-isomorphic),
#: the fabric-aware inter family, no network, one session
DEFAULT_PARAMS = {"root": 0, "inter": None, "network": None, "sessions": 1}


def priced_stages(
    name: str, **params
) -> tuple[tuple[Schedule, Discipline], ...]:
    """The ``(schedule, discipline)`` pairs family ``name`` is priced as.

    ``params`` are the bound params the stages' generator calls read
    (``n`` always), over :data:`DEFAULT_PARAMS`.
    """
    bound = {**DEFAULT_PARAMS, **params}
    return tuple(
        (stage.schedule(**bound), stage.discipline)
        for stage in STAGES[name]
    )


def family_cost(
    name: str,
    total_bytes: int,
    rates,
    network,
    multithread: bool = False,
    thread_speedup: float = 6.0,
    *,
    n: int,
    **params,
) -> Breakdown:
    """Price family ``name`` on ``n`` ranks: the sum of its stages'
    analytic dry runs — the §III-C closed forms fall out of walking the
    rows the interpreter runs.  ``params`` are the row's other bound
    params (``chunks``, ``sessions``, ``nodemap``, ``inter``)."""
    ensure_positive_int(n, "n")
    ensure_positive(total_bytes, "total_bytes")
    return combine(
        *(
            schedule_cost(
                schedule, discipline, total_bytes, rates, network,
                multithread, thread_speedup,
            )
            for schedule, discipline in priced_stages(
                name, n=n, network=network, **params
            )
        )
    )
