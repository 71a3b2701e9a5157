"""A quantised block never leaves a sealed run, on either plane.

The homomorphic codec keeps a rank's own blocks as
:class:`~repro.compression.format.QuantisedField` for the whole run, and
``ScheduleExecutor.run`` ends by coding whatever it still holds.  So
the state a sealed run hands back — every run on real processes (through
``execute_rank``) and every simulator run but one kind — holds only the
types it held before: arrays and compressed streams.  The one kind is the
fused hand-off inside a composed row, which the interpreter runs unsealed
so that the next stage takes the owned blocks still quantised; what a
caller finally gets is checked in
``tests/collectives/test_result_boundary.py``.  Checked for every family
row, fault-free and with every compressed stream forced unrecoverable
(runs that abort at schedule level included).
"""

from __future__ import annotations

import pytest

from repro.bench.mp import FAMILIES, build_case
from repro.collectives import interpreter
from repro.compression.format import QuantisedField
from repro.runtime.cluster import SimCluster
from repro.runtime.faults import FaultPlan
from repro.runtime.mp_cluster import MPCluster
from repro.runtime.trace import TraceLog
from repro.schedule.executor import ScheduleExecutor
from repro.schedule.families import STAGES
from repro.schedule.mp_executor import MPExecutor

from ..collectives.span_pins import CASES, FORCED, N, fields

#: every compressed delivery fails validation on every attempt
ABORTING = FaultPlan(seed=3, corrupt_rate=1.0)


def _held(state: list) -> list:
    return [
        (rank, block)
        for rank, mine in enumerate(state)
        if mine is not None
        for block, value in mine.items()
        if isinstance(value, QuantisedField)
    ]


def test_no_family_row_leaves_a_quantised_block_in_state(monkeypatch):
    """Every stage of the family table, run by the interpreter through the
    named entry points, healthy and forced to degrade: every sealed run
    leaves nothing quantised, and only a fused hand-off (a reduce-scatter
    without its decode phase) runs unsealed."""
    run, run_stage = ScheduleExecutor.run, interpreter._run_stage
    leaks, stages, handed_off = [], set(), set()

    def checked_run(self, schedule, state):
        outcome = run(self, schedule, state)
        if self.seal:
            leaks.extend((schedule.name, *held) for held in _held(state))
        else:
            handed_off.add(
                (schedule.name, [p.slot for p in schedule.phases][-1])
            )
        return outcome

    def recorded_stage(family, *args, **kwargs):
        stages.update(family.stages)
        return run_stage(family, *args, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "run", checked_run)
    monkeypatch.setattr(interpreter, "_run_stage", recorded_stage)
    data = fields()
    aborted = 0
    for call in CASES.values():
        for faults in (None, FORCED):
            cluster = SimCluster(N, trace=TraceLog(), faults=faults)
            aborted += call(cluster, data).degraded
    assert not leaks
    assert handed_off == {
        ("ring-reduce-scatter(n=4)", "exchange"),
        ("pipelined-ring-reduce-scatter(n=4,chunks=2)", "exchange"),
    }
    assert aborted  # the forced runs did degrade
    # composed rows list the very stage objects of the rows they nest
    assert stages == {stage for row in STAGES.values() for stage in row}


@pytest.fixture(scope="module")
def cluster4():
    with MPCluster(4) as c:
        yield c


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_execute_rank_ships_no_quantised_block(cluster4, family):
    case = build_case(family, 4, 4096, seed=13)
    run = MPExecutor(cluster4, case.spec).run(case.schedule, case.make_state())
    assert not run.degraded
    assert not _held(run.state)


@pytest.mark.parametrize(
    "family", sorted(f for f, kind in FAMILIES.items() if kind != "plain")
)
def test_an_aborted_rank_ships_no_quantised_block(family):
    case = build_case(family, 4, 4096, seed=13)
    with MPCluster(4) as doomed:  # an aborted run poisons its cluster
        run = MPExecutor(doomed, case.spec, plan=ABORTING).run(
            case.schedule, case.make_state()
        )
    assert run.degraded
    assert not _held(run.state)
