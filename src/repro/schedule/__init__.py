"""repro.schedule: collective schedules as data (control/data plane split).

* :mod:`~repro.schedule.ir` — the IR: ``CommOp``/``LocalOp`` grouped into
  ``Round``/``Phase``/``Schedule``;
* :mod:`~repro.schedule.generators` — pure schedule generators (ring,
  chunk-pipelined ring, Rabenseifner, rooted trees);
* :mod:`~repro.schedule.families` — the stage half of the family table:
  which (schedule, codec) stages make up each collective;
* :mod:`~repro.schedule.codecs` — payload codecs (plain / DOC /
  homomorphic) the executor pairs a schedule with, each declaring the one
  charge table it runs and is priced under;
* :mod:`~repro.schedule.executor` — the single engine all collective
  families run on;
* :mod:`~repro.schedule.cost` — analytic dry runs of the same schedule
  objects (the cost model's backend);
* :mod:`~repro.schedule.tuner` — cost-driven candidate enumeration and
  the persisted :class:`~repro.schedule.tuner.TuningTable`.
"""

from .codecs import (
    SYNC_OVERHEAD_S,
    CompressedBcastCodec,
    DocGatherCodec,
    DocReduceCodec,
    HomomorphicCodec,
    PayloadCodec,
    PlainCodec,
)
from .cost import (
    CalibrationFit,
    CalibrationSample,
    Discipline,
    WireSummary,
    combine,
    fit_alpha_beta,
    profile_stats,
    schedule_cost,
    wire_summary,
)
from .executor import Outcome, ScheduleExecutor
from .families import STAGES, StageSpec, family_cost, priced_stages
from .mp_executor import CodecSpec, MPExecutor
from .generators import (
    INTER_FAMILIES,
    batched_fused_reduce,
    binomial_bcast,
    direct_reduce,
    flat_gather,
    hierarchical_allreduce_schedule,
    pipelined_ring_reduce_scatter,
    rabenseifner_allreduce_schedule,
    rabenseifner_ranges,
    ring_allgather,
    ring_reduce_scatter,
    select_inter_family,
)
from .ir import CommOp, LocalOp, Phase, Round, Schedule
from .tuner import (
    SCHEMA_VERSION,
    Candidate,
    TableEntry,
    TuningKey,
    TuningTable,
    TuningTableError,
    candidate_family,
    candidate_stages,
    classify_roughness,
    enumerate_candidates,
    fabric_name,
    lookup_entry,
    load_default_table,
    resolve_table_path,
    score_candidate,
    size_bucket,
    tune_point,
)

#: derived, not declared here: the homomorphic codec's table, and that
#: table with the compressed allgather's slots (kept importable by name)
HZ_REDUCE = HomomorphicCodec.discipline
HZ_GATHER = STAGES["hzccl_allgather_compressed"][0].discipline

__all__ = [
    # ir
    "CommOp",
    "LocalOp",
    "Round",
    "Phase",
    "Schedule",
    # generators
    "ring_reduce_scatter",
    "ring_allgather",
    "pipelined_ring_reduce_scatter",
    "rabenseifner_allreduce_schedule",
    "rabenseifner_ranges",
    "flat_gather",
    "direct_reduce",
    "batched_fused_reduce",
    "binomial_bcast",
    "hierarchical_allreduce_schedule",
    "select_inter_family",
    "INTER_FAMILIES",
    # codecs
    "PayloadCodec",
    "PlainCodec",
    "DocReduceCodec",
    "DocGatherCodec",
    "HomomorphicCodec",
    "CompressedBcastCodec",
    "SYNC_OVERHEAD_S",
    # executor
    "ScheduleExecutor",
    "Outcome",
    # family table (stage half)
    "StageSpec",
    "STAGES",
    "priced_stages",
    "family_cost",
    # mp executor (the real data plane)
    "MPExecutor",
    "CodecSpec",
    # cost
    "Discipline",
    "HZ_REDUCE",
    "HZ_GATHER",
    "schedule_cost",
    "combine",
    "profile_stats",
    "WireSummary",
    "wire_summary",
    "CalibrationSample",
    "CalibrationFit",
    "fit_alpha_beta",
    # tuner
    "SCHEMA_VERSION",
    "TuningKey",
    "Candidate",
    "TableEntry",
    "TuningTable",
    "TuningTableError",
    "enumerate_candidates",
    "candidate_family",
    "candidate_stages",
    "score_candidate",
    "tune_point",
    "classify_roughness",
    "fabric_name",
    "size_bucket",
    "lookup_entry",
    "resolve_table_path",
    "load_default_table",
]
