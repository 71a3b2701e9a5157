"""Aggregation service: multiplex concurrent reduction sessions.

Many independent training/analysis jobs ("tenants") ask the same
cluster for rooted SUM reductions at the same time.  Running each
request alone wastes exactly what hZCCL's fused k-way fold amortises:
the per-message α and the per-call setup.  :class:`AggregationService`
is the asyncio front door that closes the gap (DESIGN.md §16):

* **admission control** — a bounded pending count; a submit over the
  bound is refused *immediately* with :class:`ServiceSaturated`
  (backpressure is an error the caller handles, not a silent stall),
  and optional per-tenant in-flight quotas refuse with
  :class:`TenantQuotaExceeded`;
* **batching window** — the first session of a given shape arms a
  ``window_s`` timer; every same-shaped session arriving inside the
  window joins the batch (up to ``max_batch``, which flushes early).
  One :class:`~repro.core.pipeline.CollectiveRequest` with
  ``op="batched-reduce"`` covers the whole batch, so repeated shapes
  hit the process-wide :data:`~repro.core.pipeline.PLAN_CACHE` and the
  fused fold keeps every session **bit-identical** to a lone call;
* **observability** — ``service.*`` counters in :data:`repro.obs.METRICS`
  plus per-tenant submit counters (the first :data:`TENANT_COUNTERS`
  tenants by name, the rest as ``other``), mirrored by :meth:`stats`;
* **graceful drain** — :meth:`drain` flushes every open window and waits
  for in-flight batches; :meth:`stop` closes admission first.  A caller
  that cancels its ``submit`` before the flush is skipped without
  disturbing the rest of its batch.

Execution happens in worker threads (``asyncio.to_thread``) so the
event loop keeps admitting and coalescing while a batch reduces.

>>> import asyncio, numpy as np
>>> from repro.service import AggregationService
>>> async def main():
...     data = [np.arange(64, dtype=np.float32) + r for r in range(4)]
...     async with AggregationService() as svc:
...         a, b = await asyncio.gather(svc.submit(data), svc.submit(data))
...     return a.batched, np.array_equal(a.output, b.output)
>>> asyncio.run(main())
(2, True)
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from .collectives.base import validate_local_data
from .core.config import CollectiveConfig
from .core.pipeline import (
    PLAN_CACHE,
    CollectiveRequest,
    PayloadSpec,
    execute,
    plan,
)
from .obs.metrics import METRICS

__all__ = [
    "AggregationService",
    "BatchKey",
    "ServiceClosed",
    "ServiceSaturated",
    "SessionResult",
    "TenantQuotaExceeded",
]

#: distinct tenants that get their own ``service.tenant.<name>.submitted``
#: counter; later tenants share ``service.tenant.other.submitted``, so a
#: stream of fresh tenant names cannot grow the metrics registry
TENANT_COUNTERS = 64


class ServiceSaturated(RuntimeError):
    """Admission refused: the bounded pending queue is full."""


class TenantQuotaExceeded(RuntimeError):
    """Admission refused: the tenant is over its in-flight quota."""


class ServiceClosed(RuntimeError):
    """Submit after :meth:`AggregationService.stop`."""


@dataclass(frozen=True)
class BatchKey:
    """Coalescing key: sessions batch only when all four fields match.

    The key carries the full ``shape`` (not just the element count)
    because the fused schedule requires same-shaped session vectors —
    a ``(2, 32)`` and a ``(64,)`` payload must not share a batch.
    """

    n_ranks: int
    dtype: str
    shape: tuple[int, ...]
    root: int

    @classmethod
    def of(cls, arrays: list[np.ndarray], root: int) -> "BatchKey":
        return cls(
            n_ranks=len(arrays),
            dtype=str(arrays[0].dtype),
            shape=tuple(arrays[0].shape),
            root=root,
        )


@dataclass
class SessionResult:
    """One session's slice of a (possibly coalesced) reduction.

    ``bytes_on_wire`` is the *whole batch's* wire traffic — the cost the
    session shared, not a per-session attribution.
    """

    output: np.ndarray
    tenant: str
    batched: int
    bytes_on_wire: int
    degraded: bool


@dataclass
class _Session:
    tenant: str
    arrays: list[np.ndarray]
    future: asyncio.Future


@dataclass
class _Bucket:
    sessions: list[_Session] = field(default_factory=list)
    timer: asyncio.Task | None = None


class AggregationService:
    """Asyncio front door batching rooted reductions onto fused plans.

    Parameters
    ----------
    config : collective configuration for every batch (fault plans ride
        along here — chaos testing injects ``config.fault_plan`` and the
        degrade-to-plain contract covers the whole batch).
    window_s : batching window armed by the first session of a shape.
    max_batch : flush a shape's bucket early at this many sessions;
        ``1`` disables coalescing (every session runs alone).
    max_pending : bound on admitted-but-unresolved sessions across all
        tenants — the backpressure threshold.
    tenant_quota : optional per-tenant in-flight session bound.
    """

    def __init__(
        self,
        config: CollectiveConfig | None = None,
        *,
        window_s: float = 0.002,
        max_batch: int = 8,
        max_pending: int = 64,
        tenant_quota: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1")
        self.config = config or CollectiveConfig()
        self.window_s = window_s
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.tenant_quota = tenant_quota
        self._buckets: dict[BatchKey, _Bucket] = {}
        self._tasks: set[asyncio.Task] = set()
        self._pending = 0
        self._tenant_pending: dict[str, int] = {}
        self._metric_tenants: set[str] = set()
        self._closed = False
        # lifetime counters, mirrored into METRICS when enabled
        self._counts = {
            "submitted": 0,
            "rejected_backpressure": 0,
            "rejected_quota": 0,
            "batches": 0,
            "sessions_batched": 0,
            "cancelled": 0,
            "wire_bytes": 0,
        }

    # ------------------------------------------------------------------ #
    # admission + coalescing (event-loop thread only)
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        local_data,
        *,
        tenant: str = "default",
        root: int = 0,
    ) -> SessionResult:
        """Admit one reduction session and await its reduced vector.

        Raises :class:`ServiceSaturated` / :class:`TenantQuotaExceeded`
        / :class:`ServiceClosed` *synchronously* at admission — a
        refused session never occupies queue space.  Cancelling the
        awaiting task withdraws the session from its batch.
        """
        if self._closed:
            raise ServiceClosed("service is stopped; no new sessions")
        arrays = validate_local_data(local_data)
        if not 0 <= root < len(arrays):
            raise IndexError(
                f"root {root} out of range for {len(arrays)} ranks"
            )
        if self._pending >= self.max_pending:
            self._count("rejected_backpressure")
            raise ServiceSaturated(
                f"{self._pending} sessions pending (bound {self.max_pending})"
            )
        held = self._tenant_pending.get(tenant, 0)
        if self.tenant_quota is not None and held >= self.tenant_quota:
            self._count("rejected_quota")
            raise TenantQuotaExceeded(
                f"tenant {tenant!r} holds {held} in-flight sessions "
                f"(quota {self.tenant_quota})"
            )

        self._pending += 1
        self._tenant_pending[tenant] = held + 1
        self._count("submitted")
        if METRICS.enabled:
            named = self._metric_tenants
            if len(named) < TENANT_COUNTERS:
                named.add(tenant)
            label = tenant if tenant in named else "other"
            METRICS.inc(f"service.tenant.{label}.submitted")

        key = BatchKey.of(arrays, root)
        session = _Session(
            tenant=tenant,
            arrays=arrays,
            future=asyncio.get_running_loop().create_future(),
        )
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
            bucket.timer = asyncio.create_task(self._window(key))
        bucket.sessions.append(session)
        if len(bucket.sessions) >= self.max_batch:
            self._flush(key)
        try:
            return await session.future
        finally:
            self._release(session)

    async def _window(self, key: BatchKey) -> None:
        try:
            await asyncio.sleep(self.window_s)
        except asyncio.CancelledError:
            return
        self._flush(key)

    def _flush(self, key: BatchKey) -> None:
        """Close a shape's window and hand its batch to a worker."""
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None and bucket.timer is not asyncio.current_task():
            bucket.timer.cancel()
        task = asyncio.create_task(self._run_batch(key, bucket.sessions))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------ #
    # execution (worker thread via asyncio.to_thread)
    # ------------------------------------------------------------------ #
    async def _run_batch(
        self, key: BatchKey, sessions: list[_Session]
    ) -> None:
        live = [s for s in sessions if not s.future.cancelled()]
        dropped = len(sessions) - len(live)
        if dropped:
            self._count("cancelled", dropped)
        if not live:
            return
        request = CollectiveRequest(
            op="batched-reduce",
            n_ranks=key.n_ranks,
            payload=PayloadSpec(
                dtype=key.dtype,
                elements=int(np.prod(key.shape, dtype=np.int64)),
            ),
            root=key.root,
            sessions=len(live),
        )
        batch = [s.arrays for s in live]
        try:
            plan_ = plan(request, self.config)
            result = await asyncio.to_thread(
                execute, plan_, batch, config=self.config
            )
        except Exception as exc:  # noqa: BLE001 — fan the failure out
            for s in live:
                if not s.future.done():
                    s.future.set_exception(exc)
            return
        self._count("batches")
        self._count("sessions_batched", len(live))
        self._count("wire_bytes", result.bytes_on_wire)
        if METRICS.enabled:
            METRICS.observe("service.batch.sessions", len(live))
            if result.degraded:
                METRICS.inc("service.batches.degraded")
        for i, s in enumerate(live):
            if not s.future.done():
                s.future.set_result(
                    SessionResult(
                        output=result.outputs[i],
                        tenant=s.tenant,
                        batched=len(live),
                        bytes_on_wire=result.bytes_on_wire,
                        degraded=result.degraded,
                    )
                )

    def _release(self, session: _Session) -> None:
        self._pending -= 1
        left = self._tenant_pending.get(session.tenant, 1) - 1
        if left <= 0:
            self._tenant_pending.pop(session.tenant, None)
        else:
            self._tenant_pending[session.tenant] = left

    def _count(self, name: str, value: int = 1) -> None:
        self._counts[name] += value
        if METRICS.enabled:
            METRICS.inc(f"service.{name}", value)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def drain(self) -> None:
        """Flush every open window and wait for in-flight batches."""
        while self._buckets or self._tasks:
            for key in list(self._buckets):
                self._flush(key)
            tasks = list(self._tasks)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def stop(self) -> None:
        """Close admission, then drain (idempotent)."""
        self._closed = True
        await self.drain()

    async def __aenter__(self) -> "AggregationService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Admitted-but-unresolved sessions (the backpressure measure)."""
        return self._pending

    def stats(self) -> dict:
        """Lifetime counters plus the shared plan cache's hit rate."""
        return {
            **self._counts,
            "pending": self._pending,
            "tenants": dict(self._tenant_pending),
            "plan_cache": PLAN_CACHE.stats(),
        }
