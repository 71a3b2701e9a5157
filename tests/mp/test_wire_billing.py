"""One billing rule on both planes, and measured compute on real processes.

Every comm is one message billed once at its scheduled size, whether the
first transmission arrives or not; a retransmission that reaches the wire
is billed again.  So a message whose first attempt is dropped and whose
second arrives costs twice its bytes — on the simulator and on real
processes alike, plain or compressed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.mp import build_case
from repro.runtime import SimCluster
from repro.runtime.faults import FaultPlan
from repro.runtime.mp_cluster import MPCluster
from repro.schedule.executor import ScheduleExecutor
from repro.schedule.ir import CommOp, LocalOp, Phase, Round, Schedule
from repro.schedule.mp_executor import CodecSpec, MPExecutor

#: one block sent 0 → 1 and kept; the setup phase compresses it at rank 0
#: under the compressed-broadcast codec and is skipped by the plain one
ONE_COMM = Schedule(
    name="one-comm",
    n_ranks=2,
    phases=(
        Phase("setup", (Round(kind="compute",
                              ops=(LocalOp(0, "prepare", (0,)),)),)),
        Phase("exchange",
              (Round(comms=(CommOp(0, 1, (0,), action="store"),)),)),
    ),
).validate()


def _plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, drop_rate=0.5)


#: the first seed whose plan drops attempt 0 on link 0 → 1 and lets
#: attempt 1 through, read off the plan's decisions
DROP_THEN_OK = next(
    seed for seed in range(1000)
    if _plan(seed).decide(0, 1, 0).drop
    and not _plan(seed).decide(0, 1, 1).faulty
)


def _state():
    block = np.cumsum(
        np.random.default_rng(3).normal(0, 0.02, 4096)
    ).astype(np.float32)
    return [{0: block}, {}]


@pytest.fixture(scope="module")
def cluster2():
    with MPCluster(2) as c:
        yield c


@pytest.mark.parametrize("kind", ["plain", "compressed-bcast"])
def test_a_dropped_first_transmission_is_billed(cluster2, kind):
    plan = _plan(DROP_THEN_OK)
    spec = CodecSpec(kind)
    sim = SimCluster(2, faults=plan)
    ref = ScheduleExecutor(sim, spec.build(sim)).run(ONE_COMM, _state())
    run = MPExecutor(cluster2, spec, plan=plan).run(ONE_COMM, _state())
    nbytes = int(ref.state[1][0].nbytes)
    assert sim.channel.stats.drops == 1
    assert sim.channel.stats.retransmissions == 1
    assert not ref.degraded and not run.degraded
    assert ref.wire == run.wire == 2 * nbytes


def test_a_straggler_does_not_inflate_measured_compute():
    # a straggler's slowdown is the simulator's model of a slow rank; a
    # real process reports the kernel seconds it measured
    case = build_case("ring-rs-hz", 2, 4096, seed=0)
    plan = FaultPlan(stragglers=(1,), straggler_factor=1000.0)
    with MPCluster(2) as cluster:
        run = MPExecutor(cluster, case.spec, plan=plan).run(
            case.schedule, case.make_state()
        )
    assert not run.degraded
    assert 0.0 < run.compute_s <= run.makespan_s
