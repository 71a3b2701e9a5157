"""Round accounting is pinned to *sent* bytes (schedule-IR satellite).

``ScheduleExecutor`` closes every exchange round on the size the sender
scheduled — never on what a faulty link happened to deliver mid-retry.
Fault handling (retransmits, waits) is charged to the affected rank's
compute/OTHER clock inside the round, so under recoverable corrupt and
truncate faults the per-round **comm** components of the trace must be
byte-for-byte identical to a healthy run of the same collective; only
round durations may stretch.
"""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime import FaultPlan, NetworkModel, SimCluster, TraceLog

pytestmark = pytest.mark.chaos

N_RANKS = 4
NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)
CONFIG = CollectiveConfig(
    error_bound=1e-3, block_size=8, n_threadblocks=3, network=NET
)
OPS = {
    "mpi-allreduce": lambda cl, d: run(FAMILIES["mpi_allreduce"], cl, d),
    "ccoll-allreduce": lambda cl, d: run(FAMILIES["ccoll_allreduce"], cl, d, CONFIG),
    "hzccl-allreduce": lambda cl, d: run(FAMILIES["hzccl_allreduce"], cl, d, CONFIG),
    "hzccl-rabenseifner": lambda cl, d: run(
        FAMILIES["hzccl_rabenseifner_allreduce"], cl, d, CONFIG,
    ),
}


def _data() -> list[np.ndarray]:
    rng = np.random.default_rng(0xACC7)
    return [
        np.cumsum(rng.normal(0, 0.05, 360)).astype(np.float32)
        for _ in range(N_RANKS)
    ]


def _round_comms(op, plan):
    trace = TraceLog()
    cluster = SimCluster(N_RANKS, network=NET, trace=trace, faults=plan)
    result = op(cluster, _data())
    comms = [e.comm_s for e in trace.events if e.kind == "round"]
    return result, comms


@pytest.mark.parametrize("op_name", sorted(OPS))
@pytest.mark.parametrize("seed", range(5))
def test_round_comm_terms_invariant_under_recoverable_faults(op_name, seed):
    op = OPS[op_name]
    healthy, healthy_comms = _round_comms(op, None)
    assert not healthy.degraded
    faulty, faulty_comms = _round_comms(
        op, FaultPlan(seed=seed, corrupt_rate=0.15, truncate_rate=0.05)
    )
    if faulty.degraded:
        pytest.skip("stream unrecoverable at this seed — fallback path")
    # retransmits legitimately add wire *bytes*, but the per-round comm
    # charge closes on the scheduled (sent) size, so it must not move
    assert faulty_comms == healthy_comms, (
        "per-round comm terms moved under faults: round accounting is "
        "leaking delivered (not sent) sizes"
    )


def test_enough_recoverable_scenarios_actually_compared():
    """Guard the parametrised test against silently skipping everything."""
    recovered = 0
    for op in OPS.values():
        for seed in range(5):
            result, _ = _round_comms(
                op, FaultPlan(seed=seed, corrupt_rate=0.15, truncate_rate=0.05)
            )
            if not result.degraded:
                recovered += 1
    assert recovered >= 10
