"""Spans recorded from the benchmark's side of each layer boundary.

The traced pass installs timing wrappers around each layer's public
entry points at run time and removes them afterwards; nothing inside
``src/repro`` is edited.  A span carries name, layer, start, end, its
parent and the op (root span) it belongs to.  The parent travels in a
``contextvars`` variable, which ``asyncio.create_task`` and
``asyncio.to_thread`` copy, so the service's hop onto a worker thread
keeps its parent.  Spans stay in memory until the slice ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass

#: (span id, op id) of the innermost open span in this context
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_bench_span", default=None
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a root span
    op: int  # id of the root span: one per collective call / session
    name: str
    layer: str
    t0: float
    t1: float
    thread: int
    arena_allocs: int = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``places`` lists every ``module:attr.path`` under which the same
    callable is bound (a ``from .pipeline import plan`` makes a second
    binding the caller resolves), so one wrapper covers all of them.
    """

    name: str
    layer: str
    places: tuple[str, ...]
    count_arena: bool = False


TARGETS = (
    Target("facade.allreduce", "core", ("repro.core.api:HZCCL.allreduce",)),
    Target(
        "service.submit", "service",
        ("repro.service:AggregationService.submit",),
    ),
    Target(
        "core.plan", "core",
        ("repro.core.pipeline:plan", "repro.core.api:plan",
         "repro.service:plan"),
    ),
    Target(
        "core.execute", "core",
        ("repro.core.pipeline:execute", "repro.core.api:execute",
         "repro.service:execute"),
        count_arena=True,
    ),
    Target(
        "schedule.run", "schedule",
        ("repro.schedule.executor:ScheduleExecutor.run",),
    ),
    Target(
        "mp.run", "runtime", ("repro.schedule.mp_executor:MPExecutor.run",)
    ),
    Target(
        "cpr", "compression", ("repro.compression.fzlight:FZLight.compress",)
    ),
    Target(
        "dpr", "compression",
        ("repro.compression.fzlight:FZLight.decompress",),
    ),
    Target(
        "hpr", "homomorphic",
        ("repro.homomorphic.hzdynamic:HZDynamic.reduce_fused",),
    ),
    Target(
        "hpr.add", "homomorphic",
        ("repro.homomorphic.hzdynamic:HZDynamic.add",),
    ),
)


def _arena_allocations() -> int:
    from repro.kernels.arena import get_arena

    return get_arena().allocations


class Recorder:
    """Collects spans while ``enabled``; wrappers are inert otherwise.

    A forked child (``MPCluster`` forks its workers from this process)
    inherits the wrapped classes; the at-fork hook switches recording off
    there, so workers pay one attribute test per call and keep nothing.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -------------------------------------------------------------- #
    def _record(self, target: Target, sid, parent, t0, t1, allocs) -> None:
        self.spans.append(
            Span(
                id=sid,
                parent=parent[0] if parent else 0,
                op=parent[1] if parent else sid,
                name=target.name,
                layer=target.layer,
                t0=t0,
                t1=t1,
                thread=threading.get_ident(),
                arena_allocs=allocs,
            )
        )

    def wrap(self, fn, target: Target):
        """A timing twin of ``fn`` (sync or coroutine function)."""
        rec = self

        def open_span():
            parent = _CURRENT.get()
            sid = next(rec._ids)
            token = _CURRENT.set((sid, parent[1] if parent else sid))
            before = _arena_allocations() if target.count_arena else 0
            return parent, sid, token, before

        def close_span(parent, sid, token, before, t0):
            t1 = time.perf_counter()
            _CURRENT.reset(token)
            allocs = (
                _arena_allocations() - before if target.count_arena else 0
            )
            rec._record(target, sid, parent, t0, t1, allocs)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not rec.enabled:
                    return await fn(*args, **kwargs)
                opened = open_span()
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    close_span(*opened, t0)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            opened = open_span()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(*opened, t0)

        return wrapper

    # -------------------------------------------------------------- #
    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for target in targets:
            wrapped = {}  # original -> wrapper, shared across places
            for place in target.places:
                try:
                    owner, attr, original = _resolve(place)
                except (ImportError, AttributeError) as exc:
                    self.notes.append(
                        f"{target.name}: {place} not found ({exc}); "
                        "its spans are missing from this trace"
                    )
                    continue
                if original not in wrapped:
                    wrapped[original] = self.wrap(original, target)
                setattr(owner, attr, wrapped[original])
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.enabled = False
        self.uninstall()


def _resolve(place: str):
    """``module:attr.path`` -> (owner object, attribute name, value)."""
    module_name, _, path = place.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # a class attribute must come from the class itself so the original
    # (not a bound or inherited view) is what gets restored
    original = (
        owner.__dict__[attr] if attr in vars(owner) else getattr(owner, attr)
    )
    return owner, attr, original


# ------------------------------------------------------------------ #
# span arithmetic
# ------------------------------------------------------------------ #
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    Children may overlap each other (two worker threads) and may run on
    another thread than the parent; only the part of the parent's
    interval that no child covers is the parent's own.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.t0, s.t1)
        for s in spans
    }


def summarize(spans) -> dict:
    """Per-name call counts and self seconds, plus the number of ops."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    roots = 0
    for s in spans:
        row = by_name.setdefault(
            s.name, {"calls": 0, "self_s": 0.0, "arena_allocs": 0}
        )
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        row["arena_allocs"] += s.arena_allocs
        if not s.parent:
            roots += 1
    return {
        "ops": roots,
        "self_sum_s": sum(selfs.values()),
        "by_name": by_name,
    }


def spans_to_json(spans) -> list[dict]:
    """Spans as JSON rows, times in seconds from the first span's start."""
    origin = min((s.t0 for s in spans), default=0.0)
    return [
        {
            "id": s.id,
            "parent": s.parent,
            "op": s.op,
            "name": s.name,
            "layer": s.layer,
            "t0": s.t0 - origin,
            "t1": s.t1 - origin,
            "thread": s.thread,
        }
        for s in spans
    ]
