"""Serve many concurrent reductions through the aggregation service.

Three tenants ("climate", "gradients", "seismic") fire rooted SUM
reductions at the service at once.  Same-shaped sessions submitted in
the same event-loop tick — or while a batch of their shape is running,
up to ``window_s`` — coalesce into one fused ``batched-reduce`` plan —
one compression pass per rank covering the whole batch, fused k-way
folds at the root — while odd-shaped sessions run alone; either way
every tenant's result is bit-identical to a lone ``HZCCL.reduce`` call.
A session with no batch of its shape in flight runs at once: batching
never makes a lone caller wait.

The run also injects a chaos fault plan (dropped + corrupted packets on
the simulated data plane) to show the degrade-to-plain contract riding
through the service untouched: a batch whose compressed stream becomes
unrecoverable reruns plain, exact, and reports ``degraded=True``.

Run:  PYTHONPATH=src python examples/aggregation_service.py
"""

import asyncio

import numpy as np

from repro import CollectiveConfig, HZCCL
from repro.obs.metrics import METRICS, metrics_enabled
from repro.runtime.faults import FaultPlan
from repro.service import AggregationService

N_RANKS = 4
ELEMENTS = 8192


def make_session(seed: int, elements: int = ELEMENTS) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.cumsum(rng.normal(0, 0.02, elements)).astype(np.float32)
        for _ in range(N_RANKS)
    ]


async def tenant(svc, name: str, sessions: list[list[np.ndarray]]):
    results = []
    for i, data in enumerate(sessions):
        r = await svc.submit(data, tenant=name)
        results.append((data, r))
        flags = ", degraded -> exact plain rerun" if r.degraded else ""
        print(
            f"  [{name}] session {i}: coalesced with "
            f"{r.batched - 1} other(s), batch wire "
            f"{r.bytes_on_wire / 1e3:.1f} KB{flags}"
        )
    return results


async def serve(config: CollectiveConfig, label: str):
    print(f"\n=== {label} ===")
    svc = AggregationService(
        config, window_s=0.02, max_batch=8, max_pending=32, tenant_quota=8
    )
    async with svc:
        outcomes = await asyncio.gather(
            tenant(svc, "climate", [make_session(s) for s in range(3)]),
            tenant(svc, "gradients", [make_session(10 + s) for s in range(3)]),
            # odd shape: never shares a batch with the others
            tenant(svc, "seismic", [make_session(99, ELEMENTS // 2)]),
        )
    stats = svc.stats()
    print(
        f"  served {stats['submitted']} sessions in {stats['batches']} "
        f"batches ({stats['sessions_batched'] / stats['batches']:.1f} "
        f"sessions/batch), wire {stats['wire_bytes'] / 1e3:.1f} KB, "
        f"plan-cache hit rate {stats['plan_cache']['hit_rate']:.0%}"
    )

    if config.fault_plan is None:
        # batching must not change a single byte vs a lone facade reduce
        lib = HZCCL(config)
        for per_tenant in outcomes:
            for data, r in per_tenant:
                independent = lib.reduce(data).outputs[0]
                assert np.array_equal(r.output, independent), (
                    "batching changed bytes!"
                )
        print("  verify: every session bit-identical to a lone reduce")
    else:
        # under faults: degraded batches rerun plain and must match the
        # plain kernel bit for bit; surviving compressed batches stay
        # within the error bound
        plain = HZCCL()
        for per_tenant in outcomes:
            for data, r in per_tenant:
                reference = plain.reduce(data, kernel="mpi").outputs[0]
                if r.degraded:
                    np.testing.assert_array_equal(r.output, reference)
                else:
                    bound = len(data) * config.error_bound + 1e-6
                    assert float(np.abs(r.output - reference).max()) <= bound
        print("  verify: degraded batches exact, the rest within the bound")


def main() -> None:
    with metrics_enabled():
        asyncio.run(serve(CollectiveConfig(), "clean run, batching on"))
        chaos = CollectiveConfig(
            fault_plan=FaultPlan(seed=1, drop_rate=0.1, corrupt_rate=0.5)
        )
        asyncio.run(
            serve(chaos, "chaos run (10% drops, 50% payload corruption)")
        )
        degraded = METRICS.counter("service.batches.degraded")
        print(
            f"\nchaos summary: {int(degraded)} degraded batch(es); "
            "degraded results are exact plain reruns, never silently wrong"
        )


if __name__ == "__main__":
    main()
