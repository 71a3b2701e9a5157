"""The collective half of the family table, and its one interpreter.

:mod:`repro.schedule.families` declares *what a family's stages are*
(schedule × codec).  A :class:`Family` row adds what only a
collective knows — the span it runs under, how its input is validated,
how rank state is seeded from the data and outputs gathered from it, and
the plain family it degrades to — and :func:`run` interprets any row:

    validate → [seed → build codec → ScheduleExecutor.run → gather] per
    stage → on an unrecoverable stream, the single degrade epilogue →
    one ``CollectiveResult``

A row with a ``seed`` is a *leaf*: it runs its one stage itself.  A row
with ``steps`` is *composed* (allreduce = reduce-scatter ∘ allgather):
each step is another row, nested under its own collective span unless it
is inline (``span=None``).  ``Family()`` refuses to construct unless the
steps' stages, in order, are exactly the tuple the schedule half lists
for the family — so how a collective nests can never drift from what the
tuner and the cost model price.

Where a quirk goes: a stage-level one (size-sync charge, skipped
phases) is a field of the ``StageSpec``; a collective-level one is a
field here — ``compressed_input`` (inputs arrive compressed: on a
fallback they are first decoded locally, and after an earlier stage fell
back the row is skipped for its fallback), ``per_session`` (the batched
reduce falls back one plain reduce per session).  The interpreter
branches on fields, never on which family it is running.

Degrades resolve at the nearest enclosing row that names a ``fallback``:
a leaf with one reruns there (stage-level fallback); inline leaves
without one abort up to their composed row, which reruns the whole
collective from its own input (whole-collective fallback).  Wire spent
before the abort is billed on top of the fallback's, for every row.  A
row run on its own whose abort no row catches raises
:class:`~repro.runtime.faults.UnrecoverableStreamError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..compression.fzlight import FZLight
from ..runtime.cluster import SimCluster
from ..runtime.faults import UnrecoverableStreamError
from ..schedule import SYNC_OVERHEAD_S, CodecSpec, ScheduleExecutor
from ..schedule.families import DEFAULT_PARAMS, STAGES, StageSpec
from .base import CollectiveResult, channel_stats

__all__ = ["Family", "FAMILIES", "run"]

#: every declared row by name (the tuner's candidates and the pipeline's
#: ``(op, kernel)`` table resolve through it)
FAMILIES: dict[str, "Family"] = {}


@dataclass(frozen=True, eq=False)
class Family:
    """One row of the family table (see the module docstring)."""

    #: key into :data:`repro.schedule.families.STAGES`
    name: str
    #: collective span the row runs under: ``""`` is the name itself,
    #: ``None`` runs inline under the caller's span
    span: str | None = ""
    #: ``(family, data, params) -> data`` validations, in order
    checks: tuple[Callable, ...] = ()
    #: ``(data, params) -> state`` — leaf rows only
    seed: Callable | None = None
    #: ``(state, data, params) -> outputs`` — leaf rows only
    gather: Callable | None = None
    #: composed rows only: the rows run in order, each fed the last's outputs
    steps: tuple["Family", ...] = ()
    #: the plain row this one finishes on after an unrecoverable stream
    fallback: "Family | None" = None
    #: inputs arrive compressed (decoded locally before a fallback)
    compressed_input: bool = False
    #: ``data`` is a batch of sessions; the fallback runs once per session
    per_session: bool = False
    stages: tuple[StageSpec, ...] = field(init=False)

    def __post_init__(self) -> None:
        stages = STAGES[self.name]
        nested = tuple(s for step in self.steps for s in step.stages)
        if self.steps and nested != stages:
            raise ValueError(
                f"family {self.name!r} does not run the stages it is priced as"
            )
        object.__setattr__(self, "stages", stages)
        if self.span == "":
            object.__setattr__(self, "span", self.name)
        FAMILIES[self.name] = self


class _Aborted(UnrecoverableStreamError):
    """A stage's schedule hit an unrecoverable stream and stopped.

    The nearest enclosing row with a fallback catches it; when no row
    does, it reaches the caller as the public error, naming the row."""

    def __init__(self, row: str, wire: int, stats) -> None:
        RuntimeError.__init__(
            self,
            f"{row}: an unrecoverable stream aborted the stage and no "
            "enclosing row has a plain fallback",
        )
        self.wire = wire
        self.stats = stats


def run(
    family: Family, cluster: SimCluster, data, config=None, **params
) -> CollectiveResult:
    """Run one family row on ``cluster`` inside its collective span.

    ``params`` are the row's bound parameters (``root``, ``chunks``,
    ``nodemap``, ``inter``) over
    :data:`~repro.schedule.families.DEFAULT_PARAMS`; the rank count and
    network come from the cluster.  Rows ignore the params they do not
    read, so a fallback or nested row simply receives its parent's; a
    param a stage's generator reads but nobody bound is a ``ValueError``
    before anything runs.  A row with no fallback of its own (an inline
    stage run alone) that hits an unrecoverable stream raises
    :class:`~repro.runtime.faults.UnrecoverableStreamError` naming it.
    """
    p = {
        **DEFAULT_PARAMS, "n": cluster.n_ranks, "network": cluster.network,
        **params,
    }
    with cluster.collective(family.span) as scope:
        outputs, wire, degraded, stats = _interpret(
            family, cluster, data, config, p
        )
    return CollectiveResult(
        outputs=outputs,
        breakdown=cluster.breakdown(),
        bytes_on_wire=wire,
        pipeline_stats=stats,
        degraded=degraded,
        fault_stats=channel_stats(cluster),
        trace=scope.trace,
    )


def _nested(family: Family, cluster, data, config, p, seal: bool = True):
    """A step or fallback row: inline rows share the caller's span; the
    rest open a collective span of their own.  Neither builds a result
    object (a rank-averaged breakdown per step is not free)."""
    if family.span is None:
        return _interpret(family, cluster, data, config, p, seal)
    with cluster.collective(family.span):
        return _interpret(family, cluster, data, config, p, seal)


def _interpret(family: Family, cluster, data, config, p, seal: bool = True):
    """``(outputs, wire, degraded, pipeline_stats)`` of one row.

    ``seal=False`` lets the row's outputs stay in the codec's deferred form
    (quantised blocks): only a step whose successor takes compressed input
    runs so, and never a row a caller sees the outputs of."""
    if family.per_session:
        p = {**p, "sessions": len(data)}  # the batch width the stage takes
    for stage in family.stages:
        stage.arguments(p)  # every param the generators read is bound
    for check in family.checks:
        data = check(family, data, p)
    outputs, wire, degraded, stats = data, 0, False, None
    try:
        if family.seed is not None:
            outputs, wire, stats = _run_stage(
                family, cluster, data, config, p, seal
            )
        for i, step in enumerate(family.steps):
            if degraded and step.compressed_input:
                # an earlier stage already fell back: the blocks are plain
                step = step.fallback
            # the fused hand-off: a step whose successor takes compressed
            # input passes its blocks on as held, a quantised owned block
            # included, so the successor codes it on its first send and
            # decodes nothing of its own
            following = family.steps[i + 1 : i + 2]
            outputs, step_wire, step_degraded, step_stats = _nested(
                step, cluster, outputs, config, p,
                seal=not following[0].compressed_input if following else seal,
            )
            wire += step_wire
            degraded = degraded or step_degraded
            if stats is None:
                stats = step_stats
    except _Aborted as aborted:
        if family.fallback is None:
            raise  # an inline stage: the enclosing row owns the fallback
        # the single degrade epilogue: finish on the plain family, from
        # this row's own input, billing the wire already spent
        wire += aborted.wire
        if stats is None:
            stats = aborted.stats
        if family.compressed_input:
            data = _decode_locally(cluster, data, config)
        reruns = [
            _nested(family.fallback, cluster, item, config, p)
            for item in (data if family.per_session else [data])
        ]
        wire += sum(rerun[1] for rerun in reruns)
        if family.per_session:
            outputs = [rerun[0][p["root"]] for rerun in reruns]
        else:
            outputs = reruns[0][0]
        degraded = True
    return outputs, wire, degraded, stats


def _run_stage(family: Family, cluster, data, config, p, seal: bool = True):
    """Seed, run and gather a leaf row's one stage."""
    (stage,) = family.stages
    state = family.seed(data, p)
    if stage.sync_sizes:
        for clock in cluster.clocks:
            clock.charge("OTHER", SYNC_OVERHEAD_S)  # size sync only
    knobs = () if config is None else (
        config.error_bound, config.block_size, config.n_threadblocks
    )
    codec = CodecSpec(stage.codec, *knobs, slots=stage.slots).build(cluster)
    schedule = stage.schedule(**p)
    outcome = ScheduleExecutor(cluster, codec, seal=seal).run(schedule, state)
    stats = codec.engine.stats if stage.folds(schedule) else None
    if outcome.degraded:
        raise _Aborted(family.name, outcome.wire, stats)
    return family.gather(state, data, p), outcome.wire, stats


def _decode_locally(cluster, chunks, config) -> list[np.ndarray]:
    """Decompress (or, handed off quantised, dequantise) each rank's own
    contribution, charged DPR, so the plain fallback can forward it."""
    comp = FZLight(
        block_size=config.block_size, n_threadblocks=config.n_threadblocks
    )
    plain = []
    for i, chunk in enumerate(chunks):
        with cluster.timed(i, "DPR"):
            plain.append(comp.decompress(chunk))
    cluster.end_compute_phase()
    return plain
