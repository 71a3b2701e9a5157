"""Aggregation service: batching equivalence, backpressure, lifecycle.

The load-bearing promise (DESIGN.md §16): a batching window that
coalesces ``k`` same-shaped sessions into one fused ``batched-reduce``
plan changes *nothing* about any session's bytes — the fused fold is
exact in the integer domain, so batched outputs are bit-identical to
``k`` independent ``reduce`` calls.  The rest is service mechanics:
bounded admission, per-tenant quotas, window flushing, cancellation
withdrawal, drain/stop.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HZCCL, CollectiveConfig
from repro.obs.metrics import METRICS, metrics_enabled
from repro.runtime.faults import FaultPlan
from repro.service import (
    TENANT_COUNTERS,
    AggregationService,
    BatchKey,
    ServiceClosed,
    ServiceSaturated,
    SessionResult,
    TenantQuotaExceeded,
)


def _session_data(n_ranks: int, elements: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.cumsum(rng.normal(0, 0.03, elements)).astype(np.float32)
        for _ in range(n_ranks)
    ]


def _submit_all(svc: AggregationService, batches, **kw):
    """Gather k concurrent submits (they must share one window)."""

    async def go():
        async with svc:
            return await asyncio.gather(
                *(svc.submit(b, **kw) for b in batches)
            )

    return asyncio.run(go())


class TestBatchingEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=5),
        n_ranks=st.integers(min_value=2, max_value=5),
        elements=st.integers(min_value=97, max_value=700),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_batched_bit_identical_to_independent_reduces(
        self, k, n_ranks, elements, seed
    ):
        batches = [
            _session_data(n_ranks, elements, seed + 17 * s) for s in range(k)
        ]
        results = _submit_all(
            AggregationService(window_s=0.05, max_batch=k), batches
        )
        assert [r.batched for r in results] == [k] * k
        lib = HZCCL()
        for s, r in enumerate(results):
            independent = lib.reduce(batches[s]).outputs[0]
            assert np.array_equal(r.output, independent)

    def test_mixed_shapes_never_share_a_batch(self):
        small = _session_data(3, 128, 1)
        large = _session_data(3, 256, 2)
        results = _submit_all(
            AggregationService(window_s=0.05, max_batch=8), [small, large]
        )
        assert [r.batched for r in results] == [1, 1]
        lib = HZCCL()
        assert np.array_equal(r0 := results[0].output, lib.reduce(small).outputs[0])
        assert r0.size == 128 and results[1].output.size == 256

    def test_batch_key_carries_shape_not_just_elements(self):
        flat = [np.zeros(64, dtype=np.float32)] * 2
        grid = [np.zeros((2, 32), dtype=np.float32)] * 2
        assert BatchKey.of(flat, 0) != BatchKey.of(grid, 0)

    def test_max_batch_one_disables_coalescing(self):
        batches = [_session_data(2, 100, s) for s in range(3)]
        results = _submit_all(
            AggregationService(window_s=0.05, max_batch=1), batches
        )
        assert [r.batched for r in results] == [1, 1, 1]

    def test_degraded_batch_falls_back_exact(self):
        config = CollectiveConfig(
            fault_plan=FaultPlan(seed=1, corrupt_rate=0.9)
        )
        batches = [_session_data(4, 300, 7 + s) for s in range(2)]
        results = _submit_all(
            AggregationService(config, window_s=0.05, max_batch=2), batches
        )
        assert all(r.degraded for r in results)
        plain = HZCCL()  # fault-free plain reference
        for s, r in enumerate(results):
            exact = plain.reduce(batches[s], kernel="mpi").outputs[0]
            np.testing.assert_array_equal(r.output, exact)


class TestAdmissionControl:
    def test_backpressure_rejects_above_max_pending(self):
        data = _session_data(2, 100, 0)

        async def go():
            svc = AggregationService(
                window_s=0.05, max_batch=8, max_pending=2
            )
            async with svc:
                outcomes = await asyncio.gather(
                    *(svc.submit(data) for _ in range(4)),
                    return_exceptions=True,
                )
            return svc, outcomes

        svc, outcomes = asyncio.run(go())
        rejected = [o for o in outcomes if isinstance(o, ServiceSaturated)]
        served = [o for o in outcomes if isinstance(o, SessionResult)]
        assert len(rejected) == 2 and len(served) == 2
        assert svc.stats()["rejected_backpressure"] == 2
        assert svc.pending == 0  # released on completion

    def test_tenant_quota_is_per_tenant(self):
        data = _session_data(2, 100, 0)

        async def go():
            svc = AggregationService(
                window_s=0.05, max_batch=8, tenant_quota=1
            )
            async with svc:
                outcomes = await asyncio.gather(
                    svc.submit(data, tenant="a"),
                    svc.submit(data, tenant="a"),
                    svc.submit(data, tenant="b"),
                    return_exceptions=True,
                )
            return svc, outcomes

        svc, outcomes = asyncio.run(go())
        assert sum(isinstance(o, TenantQuotaExceeded) for o in outcomes) == 1
        assert sum(isinstance(o, SessionResult) for o in outcomes) == 2
        assert svc.stats()["rejected_quota"] == 1

    def test_rejected_session_occupies_no_queue_space(self):
        data = _session_data(2, 100, 0)

        async def go():
            svc = AggregationService(window_s=0.05, max_pending=1)
            async with svc:
                first = asyncio.ensure_future(svc.submit(data))
                await asyncio.sleep(0)  # let it admit
                with pytest.raises(ServiceSaturated):
                    await svc.submit(data)
                assert svc.pending == 1  # the refusal didn't count
                return await first

        result = asyncio.run(go())
        assert isinstance(result, SessionResult)

    def test_bad_root_rejected_at_admission(self):
        data = _session_data(2, 64, 0)

        async def go():
            async with AggregationService() as svc:
                with pytest.raises(IndexError, match="root 5 out of range"):
                    await svc.submit(data, root=5)

        asyncio.run(go())

    def test_constructor_validates_bounds(self):
        with pytest.raises(ValueError):
            AggregationService(max_batch=0)
        with pytest.raises(ValueError):
            AggregationService(max_pending=0)
        with pytest.raises(ValueError):
            AggregationService(tenant_quota=0)


class TestLifecycle:
    def test_drain_flushes_an_open_window_early(self):
        data = _session_data(2, 100, 0)

        async def go():
            svc = AggregationService(window_s=60.0, max_batch=8)
            task = asyncio.ensure_future(svc.submit(data))
            await asyncio.sleep(0)
            await asyncio.wait_for(svc.drain(), timeout=10)
            return await task

        result = asyncio.run(go())
        assert result.batched == 1  # served without waiting the window

    def test_cancelled_session_is_skipped_not_fatal(self):
        batches = [_session_data(2, 100, s) for s in range(3)]

        async def go():
            svc = AggregationService(window_s=0.2, max_batch=8)
            tasks = [
                asyncio.ensure_future(svc.submit(b)) for b in batches
            ]
            await asyncio.sleep(0)
            tasks[1].cancel()
            done = await asyncio.gather(*tasks, return_exceptions=True)
            await svc.stop()
            return svc, done

        svc, done = asyncio.run(go())
        served = [o for o in done if isinstance(o, SessionResult)]
        assert len(served) == 2
        assert [r.batched for r in served] == [2, 2]
        assert isinstance(done[1], asyncio.CancelledError)
        assert svc.stats()["cancelled"] == 1
        assert svc.pending == 0

    def test_submit_after_stop_raises_closed(self):
        data = _session_data(2, 64, 0)

        async def go():
            svc = AggregationService()
            await svc.stop()
            with pytest.raises(ServiceClosed):
                await svc.submit(data)

        asyncio.run(go())

    def test_stop_is_idempotent(self):
        async def go():
            svc = AggregationService()
            await svc.stop()
            await svc.stop()
            await svc.drain()

        asyncio.run(go())

    def test_max_batch_flushes_before_the_window(self):
        batches = [_session_data(2, 100, s) for s in range(2)]

        async def go():
            svc = AggregationService(window_s=60.0, max_batch=2)
            results = await asyncio.gather(
                *(svc.submit(b) for b in batches)
            )
            await svc.stop()
            return results

        results = asyncio.run(asyncio.wait_for(go(), timeout=30))
        assert [r.batched for r in results] == [2, 2]


class TestObservability:
    def test_service_counters_and_tenant_attribution(self):
        batches = [_session_data(2, 100, s) for s in range(3)]
        with metrics_enabled():
            _submit_all(
                AggregationService(window_s=0.05, max_batch=8),
                batches,
                tenant="team-a",
            )
            assert METRICS.counter("service.submitted") == 3
            assert METRICS.counter("service.tenant.team-a.submitted") == 3
            assert METRICS.counter("service.batches") == 1
            assert METRICS.counter("service.sessions_batched") == 3
            assert METRICS.counter("service.wire_bytes") > 0
            hist = METRICS.histogram("service.batch.sessions")
            assert hist.count == 1 and hist.vmax == 3

    def test_tenant_counter_names_are_bounded(self):
        data = _session_data(2, 16, 0)

        async def go():
            async with AggregationService(window_s=0.0, max_batch=100,
                                          max_pending=1000) as svc:
                await asyncio.gather(
                    *(svc.submit(data, tenant=f"t{i}") for i in range(1000))
                )

        with metrics_enabled():
            asyncio.run(go())
            names = [n for n in METRICS.counters()
                     if n.startswith("service.tenant.")]
            assert len(names) <= TENANT_COUNTERS + 1
            assert METRICS.counter("service.tenant.t0.submitted") == 1
            assert METRICS.counter("service.tenant.other.submitted") == (
                1000 - TENANT_COUNTERS
            )

    def test_stats_reports_plan_cache(self):
        svc = AggregationService()
        stats = svc.stats()
        assert {"hits", "misses", "hit_rate", "size"} <= set(
            stats["plan_cache"]
        )
