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
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service
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


    def test_one_failing_session_does_not_fail_its_batch_mates(self):
        # values the coder cannot hold at the default bound (|x|/2eb past
        # int64) fail the batch they ride in; the batch reruns alone
        good = [_session_data(3, 200, 40 + s) for s in range(3)]
        bad = [np.full(200, 3e38 * (-1) ** r, dtype=np.float32) for r in range(3)]

        async def go():
            async with AggregationService(window_s=0.05, max_batch=4) as svc:
                return await asyncio.gather(
                    *(svc.submit(b) for b in good + [bad]),
                    return_exceptions=True,
                ), svc.stats()

        results, stats = asyncio.run(go())
        assert isinstance(results[3], OverflowError)
        solo = _submit_all(AggregationService(window_s=0.05, max_batch=1), good)
        for got, alone in zip(results[:3], solo):
            assert np.array_equal(got.output, alone.output)
        # the failed batch of four counts nothing; each good session then
        # ran as a batch of one
        assert stats["sessions_batched"] == 3 and stats["batches"] == 3


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


@pytest.fixture
def blocked_execute(monkeypatch):
    """Make the first batch's ``execute`` block until ``gate`` is set.

    Yields ``(gate, calls)``: ``calls`` lists each batch's session count
    in the order the batches reached ``execute``.
    """
    gate = threading.Event()
    calls: list[int] = []
    real = repro.service.execute

    def execute(plan_, batch, **kw):
        calls.append(len(batch))
        if len(calls) == 1:
            gate.wait(30)
        return real(plan_, batch, **kw)

    monkeypatch.setattr(repro.service, "execute", execute)
    try:
        yield gate, calls
    finally:
        gate.set()  # never leave a worker thread blocked


async def _until(predicate, timeout: float = 10.0) -> None:
    async def poll():
        while not predicate():
            await asyncio.sleep(0.002)

    await asyncio.wait_for(poll(), timeout)


class TestWorkConserving:
    """A shape with no batch in flight runs at once; a busy shape collects
    until its batch settles, ``max_batch`` or ``window_s``."""

    def test_lone_session_does_not_wait_the_window(self):
        data = _session_data(2, 100, 0)

        async def go():
            async with AggregationService(window_s=60.0) as svc:
                return await asyncio.wait_for(svc.submit(data), 10)

        assert asyncio.run(go()).batched == 1

    def test_woken_clients_batch_together_every_round(self):
        # max_batch above the client count: only the settle rule can
        # flush, so the in-flight mark must be clear before the woken
        # clients resubmit, or each round sits out the 60 s window
        batches = [_session_data(2, 100, s) for s in range(8)]

        async def client(svc, data):
            return [(await svc.submit(data)).batched for _ in range(3)]

        async def go():
            async with AggregationService(window_s=60.0, max_batch=16) as svc:
                return await asyncio.gather(
                    *(client(svc, b) for b in batches)
                )

        rounds = asyncio.run(asyncio.wait_for(go(), 30))
        assert rounds == [[8, 8, 8]] * 8

    def test_sessions_behind_a_running_batch_form_the_next_batch(
        self, blocked_execute
    ):
        gate, calls = blocked_execute
        batches = [_session_data(2, 100, s) for s in range(4)]

        async def go():
            svc = AggregationService(window_s=60.0, max_batch=8)
            first = asyncio.ensure_future(svc.submit(batches[0]))
            await _until(lambda: calls)
            rest = [asyncio.ensure_future(svc.submit(b)) for b in batches[1:]]
            await asyncio.sleep(0.05)
            assert calls == [1]  # they wait behind the running batch
            gate.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, *rest), 30
            )
            await svc.stop()
            return results

        results = asyncio.run(go())
        assert [r.batched for r in results] == [1, 3, 3, 3]
        assert calls == [1, 3]
        lib = HZCCL()
        for data, r in zip(batches, results):
            assert np.array_equal(r.output, lib.reduce(data).outputs[0])

    def test_window_bounds_the_wait_behind_a_running_batch(
        self, blocked_execute
    ):
        gate, calls = blocked_execute
        batches = [_session_data(2, 100, s) for s in range(2)]

        async def go():
            svc = AggregationService(window_s=0.05, max_batch=8)
            first = asyncio.ensure_future(svc.submit(batches[0]))
            await _until(lambda: calls)
            second = await asyncio.wait_for(svc.submit(batches[1]), 10)
            assert not first.done() and not gate.is_set()
            gate.set()
            await asyncio.wait_for(first, 30)
            await svc.stop()
            return second

        assert asyncio.run(go()).batched == 1
        assert calls == [1, 1]


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

    def test_queue_and_exec_histograms(self):
        data = _session_data(2, 100, 0)

        async def go():
            async with AggregationService(window_s=60.0) as svc:
                await asyncio.wait_for(svc.submit(data), 10)

        with metrics_enabled():
            asyncio.run(go())
            queue = METRICS.histogram("service.queue_ms")
            exec_ = METRICS.histogram("service.exec_ms")
            assert queue.count == 1 and exec_.count == 1
            assert 0 <= queue.vmax < 1_000  # far below the 60 000 ms window
            assert exec_.vmax > 0

    def test_histograms_stay_off_with_metrics_disabled(self):
        METRICS.reset()
        _submit_all(AggregationService(), [_session_data(2, 100, 0)])
        assert METRICS.histogram("service.queue_ms") is None
        assert METRICS.histogram("service.exec_ms") is None

    def test_stats_reports_plan_cache(self):
        svc = AggregationService()
        stats = svc.stats()
        assert {"hits", "misses", "hit_rate", "size"} <= set(
            stats["plan_cache"]
        )
