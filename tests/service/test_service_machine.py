"""Aggregation-service lifecycle as a Hypothesis state machine.

Random interleavings of submit (a same-tick group of sessions in two
shapes, some withdrawn at once), cancel, wait, drain and stop on one
event loop.  After every step ``svc.pending`` equals the
admitted sessions whose ``submit`` has not returned; at teardown every
admitted session has resolved exactly once — a result bit-identical to
a lone reduce, or its cancellation — and the service holds no bucket,
no in-flight count and no task.
"""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import HZCCL
from repro.service import (
    AggregationService,
    ServiceClosed,
    ServiceSaturated,
    SessionResult,
)

#: two 2-rank × 16-element payloads of different shapes (never batched)
PAYLOADS = {
    "flat": [np.linspace(-1, 1, 16, dtype=np.float32) * (r + 1) for r in range(2)],
    "grid": [
        np.linspace(0, 2, 16, dtype=np.float32).reshape(2, 8) - r
        for r in range(2)
    ],
}
EXPECTED = {name: HZCCL().reduce(data).outputs[0] for name, data in PAYLOADS.items()}
REFUSALS = (ServiceClosed, ServiceSaturated)


class ServiceLifecycle(RuleBasedStateMachine):
    @initialize(
        window_ms=st.sampled_from([0.0, 1.0, 20.0]),
        max_batch=st.integers(min_value=1, max_value=4),
    )
    def start(self, window_ms, max_batch):
        self.loop = asyncio.new_event_loop()
        self.svc = AggregationService(
            window_s=window_ms / 1e3, max_batch=max_batch, max_pending=6
        )
        self.admitted: list[tuple[str, asyncio.Task]] = []
        self.cancelled: set[asyncio.Task] = set()
        self.stopped = False

    def _tick(self, seconds: float = 0.0) -> None:
        self.loop.run_until_complete(asyncio.sleep(seconds))

    def _outstanding(self) -> list[asyncio.Task]:
        return [t for _, t in self.admitted if not t.done()]

    @rule(
        shapes=st.lists(st.sampled_from(sorted(PAYLOADS)), min_size=1, max_size=4),
        withdraw=st.integers(min_value=0, max_value=2),
    )
    def submit(self, shapes, withdraw):
        """Submit one session per entry, all in the same tick, then cancel
        the last ``withdraw`` of them that were admitted."""
        tasks = [
            self.loop.create_task(self.svc.submit(PAYLOADS[shape]))
            for shape in shapes
        ]
        self._tick()  # admission runs in each task's first step
        group = []
        for shape, task in zip(shapes, tasks):
            if task.done() and isinstance(task.exception(), REFUSALS):
                assert self.stopped or isinstance(
                    task.exception(), ServiceSaturated
                )
                continue
            assert not self.stopped
            group.append((shape, task))
        self.admitted += group
        for _, task in group[len(group) - withdraw:] if withdraw else ():
            self._cancel(task)

    def _cancel(self, task: asyncio.Task) -> None:
        if not task.done():
            task.cancel()
            self.cancelled.add(task)
            self._tick()

    @rule(pick=st.integers(min_value=0, max_value=99))
    def cancel(self, pick):
        # no precondition: which sessions are still waiting depends on
        # worker-thread timing, and Hypothesis needs draws that do not
        waiting = self._outstanding()
        if not waiting:
            return
        self._cancel(waiting[pick % len(waiting)])

    @rule(ms=st.sampled_from([0.0, 2.0, 25.0]))
    def wait(self, ms):
        self._tick(ms / 1e3)

    @rule()
    def drain(self):
        self.loop.run_until_complete(asyncio.wait_for(self.svc.drain(), 30))
        assert not self._outstanding()

    @rule()
    def stop(self):
        self.loop.run_until_complete(asyncio.wait_for(self.svc.stop(), 30))
        self.stopped = True
        assert not self._outstanding()

    @invariant()
    def pending_is_admitted_and_unresolved(self):
        assert self.svc.pending == len(self._outstanding())

    def teardown(self):
        try:
            self.loop.run_until_complete(
                asyncio.wait_for(self.svc.stop(), 30)
            )
            served = 0
            for shape, task in self.admitted:
                assert task.done()
                if task.cancelled():
                    assert task in self.cancelled
                    continue
                result = task.result()
                assert isinstance(result, SessionResult)
                assert np.array_equal(result.output, EXPECTED[shape])
                served += 1
            stats = self.svc.stats()
            # each admitted session counted once: in a batch or withdrawn
            assert stats["sessions_batched"] + stats["cancelled"] == len(
                self.admitted
            )
            assert stats["sessions_batched"] >= served
            assert self.svc.pending == 0 and stats["tenants"] == {}
            assert not self.svc._buckets
            assert not self.svc._running
            assert not self.svc._tasks
        finally:
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()


ServiceLifecycle.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestServiceLifecycle = ServiceLifecycle.TestCase
