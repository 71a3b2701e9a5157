"""Seeded chaos sweep across collectives × fault plans × seeds.

The acceptance bar for the resilience layer: **every** scenario completes
(no hang, no unhandled exception), the results stay within the configured
error bound *or* the collective is explicitly marked degraded, and
re-running with the same seed reproduces byte-identical outputs and an
identical fault-event trace.

13 operations × 4 plan families × 5 seeds = 260 scenarios, each executed
twice (run + replay).  Data is tiny (360 elements/rank, 4 ranks) so the
sweep stays CI-friendly; the ``chaos`` marker lets CI run it as its own
job with ``--durations`` visibility.
"""

import numpy as np
import pytest

from repro.collectives import FAMILIES, run
from repro.core import pipeline
from repro.core.config import CollectiveConfig
from repro.runtime import FaultPlan, NetworkModel, NodeMap, SimCluster, TraceLog
from repro.runtime.topology import Ring
from repro.schedule.tuner import classify_roughness

pytestmark = pytest.mark.chaos

N_RANKS = 4
N_ELEMENTS = 360
EB = 1e-3
NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)
CONFIG = CollectiveConfig(
    error_bound=EB, block_size=8, n_threadblocks=3, network=NET
)

# op name → callable(cluster, data, config) -> CollectiveResult
OPS = {
    "ring-mpi-allreduce": lambda cl, d, c: run(
        FAMILIES["mpi_allreduce"], cl, d
    ),
    "ring-ccoll-allreduce": lambda cl, d, c: run(
        FAMILIES["ccoll_allreduce"], cl, d, c
    ),
    "ring-hzccl-allreduce": lambda cl, d, c: run(
        FAMILIES["hzccl_allreduce"], cl, d, c
    ),
    "ring-hzccl-reduce-scatter": lambda cl, d, c: run(
        FAMILIES["hzccl_reduce_scatter"], cl, d, c
    ),
    "rabenseifner-mpi": lambda cl, d, c: run(
        FAMILIES["rabenseifner_allreduce"], cl, d
    ),
    "rabenseifner-hzccl": lambda cl, d, c: run(
        FAMILIES["hzccl_rabenseifner_allreduce"], cl, d, c
    ),
    "rooted-mpi-reduce": lambda cl, d, c: run(FAMILIES["mpi_reduce"], cl, d),
    "rooted-hzccl-reduce": lambda cl, d, c: run(
        FAMILIES["hzccl_reduce"], cl, d, c
    ),
    "rooted-hzccl-reduce-direct": lambda cl, d, c: run(
        FAMILIES["hzccl_reduce_direct"], cl, d, c
    ),
    "rooted-hzccl-bcast": lambda cl, d, c: run(
        FAMILIES["compressed_bcast"], cl, d[0], c
    ),
    "hierarchical-mpi": lambda cl, d, c: run(
        FAMILIES["mpi_hierarchical_allreduce"], cl, d,
        nodemap=NodeMap.regular(N_RANKS, 2),
    ),
    "hierarchical-hzccl": lambda cl, d, c: run(
        FAMILIES["hzccl_hierarchical_allreduce"], cl, d, c,
        nodemap=NodeMap.regular(N_RANKS, 2),
    ),
    # the autotuner's pick is deterministic per (shape, fabric, data), so
    # replay holds; the picked family's own degrade-to-plain path is what
    # keeps faulted runs correct.
    "tuned-hzccl": lambda cl, d, c: pipeline.execute(
        pipeline.plan(
            pipeline.CollectiveRequest(
                op="allreduce", n_ranks=len(d),
                payload=pipeline.PayloadSpec.of(d[0]), tune=True,
                roughness=classify_roughness(d[0], c.error_bound),
            ),
            c, network=cl.network,
        ),
        d, cluster=cl, config=c,
    ),
}

# plan family → seed-parameterised FaultPlan factory
PLANS = {
    "drop": lambda seed: FaultPlan(seed=seed, drop_rate=0.15),
    "corrupt": lambda seed: FaultPlan(
        seed=seed, corrupt_rate=0.2, truncate_rate=0.05
    ),
    "straggler": lambda seed: FaultPlan(
        seed=seed,
        drop_rate=0.05,
        stragglers=(seed % N_RANKS,),
        straggler_factor=6.0,
    ),
    "chaos": lambda seed: FaultPlan.chaos(seed, N_RANKS, intensity=0.08),
}

SEEDS = (0, 1, 2, 3, 4)


def _make_data(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(0xABC0 + seed)
    return [
        np.cumsum(rng.normal(0, 0.05, N_ELEMENTS)).astype(np.float32)
        for _ in range(N_RANKS)
    ]


def _run(op_name: str, plan: FaultPlan, data: list[np.ndarray]):
    cluster = SimCluster(
        N_RANKS, network=NET, faults=plan, trace=TraceLog()
    )
    result = OPS[op_name](cluster, data, CONFIG)
    return cluster, result


def _fault_signature(trace: TraceLog):
    """The replay-comparable part of the trace: fault events only.

    Fault-event seconds are policy constants (timeouts, backoff, latency),
    so they replay exactly; compute-event seconds are *measured* and are
    deliberately excluded.
    """
    return [
        (e.round_index, e.rank, e.bucket, e.seconds, e.nbytes)
        for e in trace.fault_events
    ]


def _check_values(op_name: str, result, data: list[np.ndarray]) -> None:
    """Completed scenarios are either within the error bound or degraded
    (and then exact up to plain-kernel float associativity)."""
    exact = np.sum(np.stack(data), axis=0, dtype=np.float64).astype(np.float32)
    # lossy bound: one quantisation per input + per-round requantisation
    # headroom for the C-Coll DOC path
    tol = (2 * N_RANKS + 1) * EB if not result.degraded else 1e-4
    if op_name == "ring-hzccl-reduce-scatter":
        ring = Ring(N_RANKS)
        blocks = np.array_split(exact, N_RANKS)
        for i, out in enumerate(result.outputs):
            np.testing.assert_allclose(
                out, blocks[ring.owned_block(i)], atol=tol
            )
    elif op_name.startswith("rooted-") and "bcast" not in op_name:
        assert result.outputs[0] is not None  # root holds the answer
        np.testing.assert_allclose(result.outputs[0], exact, atol=tol)
        assert all(o is None for o in result.outputs[1:])
    elif "bcast" in op_name:
        for out in result.outputs:
            np.testing.assert_allclose(out, data[0], atol=2 * EB)
    else:
        for out in result.outputs:
            np.testing.assert_allclose(out, exact, atol=tol)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("op_name", sorted(OPS))
def test_chaos_scenario(op_name: str, plan_name: str, seed: int):
    plan = PLANS[plan_name](seed)
    data = _make_data(seed)

    cluster, result = _run(op_name, plan, data)

    # 1. the scenario completed and the values are accounted for
    _check_values(op_name, result, data)

    # 2. degradation is never silent: the flag and the trace agree
    degrade_events = [
        e for e in cluster.trace.fault_events if e.bucket == "DEGRADE"
    ]
    assert bool(degrade_events) == result.degraded

    # 3. fault accounting made it to the result
    assert result.fault_stats is not None
    assert result.fault_stats.messages > 0

    # 4. same seed ⇒ byte-identical outputs and identical fault trace
    cluster2, result2 = _run(op_name, plan, data)
    assert result2.degraded == result.degraded
    for a, b in zip(result.outputs, result2.outputs):
        if a is None:
            assert b is None
        else:
            np.testing.assert_array_equal(a, b)
    assert _fault_signature(cluster.trace) == _fault_signature(cluster2.trace)


def test_sweep_covers_at_least_200_scenarios():
    assert len(OPS) * len(PLANS) * len(SEEDS) >= 200


def test_high_corruption_degrades_but_stays_correct():
    """A pathological plan (90 % corruption) must force the degrade path —
    and the degraded result is exact, never silently wrong."""
    plan = FaultPlan(seed=1, corrupt_rate=0.9)
    data = _make_data(0)
    cluster, result = _run("ring-hzccl-allreduce", plan, data)
    assert result.degraded
    exact = np.sum(np.stack(data), axis=0, dtype=np.float64).astype(np.float32)
    for out in result.outputs:
        np.testing.assert_allclose(out, exact, atol=1e-4)
    assert cluster.trace.fault_summary().get("DEGRADE", 0) >= 1
