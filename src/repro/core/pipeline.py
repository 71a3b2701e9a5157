"""The request → plan → execute pipeline behind every collective call.

Before this module, every entry point (`HZCCL.allreduce/reduce/bcast`,
``tuned_allreduce``, ``repro mp run``) re-derived the same
config → cluster → codec → schedule → executor wiring inline, so there
was no single object a service could cache, batch, or multiplex.  The
pipeline makes the three stages explicit:

* :class:`CollectiveRequest` — a frozen description of *what* the caller
  wants: op, payload spec, rank count, placement, kernel/codec choice,
  tuning intent.  Hashable, so repeated shapes share plans.
* :class:`Plan` — the resolved *how*: the family-table row
  (:class:`~repro.collectives.Family`) plus the params bound to it, the
  tuner's pick and cost estimate when tuning.  One :func:`plan` function
  is a lookup into that table — by ``(op, kernel)`` for static requests,
  by the tuner's candidate otherwise, with the hierarchical/flat
  demotion — and keeps the facade's error messages, picks, and (via
  :func:`execute`) ``tuner.*`` counters.
* :func:`execute` — runs a plan's row through the one interpreter,
  :func:`repro.collectives.run`, on a
  :class:`~repro.runtime.cluster.SimCluster` and always returns a
  :class:`~repro.collectives.CollectiveResult`.

:class:`PlanCache` keys plans on (request, network, planning-relevant
config fields, table file stamp), so repeated shapes skip dispatch and
tuner work entirely; hits/misses surface as ``plan.cache.*`` counters
and the cache reports its hit rate (the aggregation service and
``BENCH_service`` read it).  Execution-only config — fault plan, retry,
thread mode, tracing — is *not* part of the key: :func:`execute` reads
it at run time, so a cached plan can never revive a stale fault plan.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from ..collectives import FAMILIES, CollectiveResult, Family, run
from ..kernels.dispatch import use_backend
from ..obs.metrics import METRICS
from ..runtime.cluster import SimCluster
from ..runtime.nodemap import NodeMap
from ..runtime.trace import TraceLog
from ..schedule import select_inter_family
from ..schedule.families import family_cost
from ..schedule.tuner import (
    Candidate,
    TuningKey,
    TuningTable,
    candidate_family,
    fabric_name,
    load_default_table,
    lookup_entry,
    resolve_table_path,
    size_bucket,
)
from .config import DEFAULT_CONFIG, CollectiveConfig
from .cost_model import PAPER_BROADWELL

__all__ = [
    "PayloadSpec",
    "CollectiveRequest",
    "Plan",
    "PlanCache",
    "PLAN_CACHE",
    "REQUEST_OPS",
    "plan",
    "execute",
]

_KERNELS = ("hzccl", "ccoll", "mpi")

#: static dispatch: (op, kernel) → family-table row.  An allreduce with a
#: nodemap looks up op "hierarchical".
_STATIC = {
    ("reduce_scatter", "hzccl"): "hzccl_reduce_scatter",
    ("reduce_scatter", "ccoll"): "ccoll_reduce_scatter",
    ("reduce_scatter", "mpi"): "mpi_reduce_scatter",
    ("allreduce", "hzccl"): "hzccl_allreduce",
    ("allreduce", "ccoll"): "ccoll_allreduce",
    ("allreduce", "mpi"): "mpi_allreduce",
    ("hierarchical", "hzccl"): "hzccl_hierarchical_allreduce",
    ("hierarchical", "mpi"): "mpi_hierarchical_allreduce",
    ("reduce", "hzccl"): "hzccl_reduce",
    ("reduce", "hzccl-direct"): "hzccl_reduce_direct",
    ("reduce", "mpi"): "mpi_reduce",
    ("bcast", "hzccl"): "compressed_bcast",
    ("bcast", "mpi"): "mpi_bcast",
    ("batched-reduce", "hzccl"): "hzccl_batched_reduce",
}
#: what a kernel the op has no row for is told
_EXPECTED_KERNEL = {
    "reduce_scatter": f"kernel must be one of {_KERNELS}",
    "allreduce": f"kernel must be one of {_KERNELS}",
    "hierarchical": (
        "hierarchical allreduce supports kernels 'hzccl' and 'mpi'"
    ),
    "reduce": "kernel must be 'hzccl', 'hzccl-direct' or 'mpi'",
    "bcast": "kernel must be 'hzccl' or 'mpi'",
    "batched-reduce": "batched-reduce runs the 'hzccl' kernel only",
}
#: plan slugs that are not simply the kernel name
_SLUGS = {"hierarchical": "hier-{inter}", "batched-reduce": "batched-fused"}

#: ops a request can carry.  ``batched-reduce`` is the aggregation
#: service's fused coalescing plan; the rest mirror the facade methods.
REQUEST_OPS = (
    "allreduce", "reduce", "bcast", "reduce_scatter", "batched-reduce",
)

_TUNED_OPS = ("allreduce", "reduce", "bcast")


@dataclass(frozen=True)
class PayloadSpec:
    """Shape of one rank's contribution (dtype + element count).

    Static plans dispatch without looking at it (leave the default so
    every payload size shares one cached plan); tuned plans need it for
    the size bucket, batched plans for the cost estimate.
    """

    dtype: str = "float32"
    elements: int = 0

    @property
    def nbytes(self) -> int:
        return self.elements * np.dtype(self.dtype).itemsize

    @classmethod
    def of(cls, array: np.ndarray) -> "PayloadSpec":
        return cls(dtype=str(array.dtype), elements=int(array.size))


@dataclass(frozen=True)
class CollectiveRequest:
    """Frozen description of one collective call (hashable — plans key
    on it).

    ``roughness`` is the classified roughness of the actual data, only
    required when ``tune=True`` (the tuning key needs it); ``sessions``
    is the batch width of a ``batched-reduce`` request.
    """

    op: str
    n_ranks: int
    payload: PayloadSpec = PayloadSpec()
    kernel: str = "hzccl"
    root: int = 0
    nodemap: NodeMap | None = None
    inter: str | None = None
    tune: bool = False
    roughness: str | None = None
    sessions: int = 1

    def __post_init__(self) -> None:
        if self.op not in REQUEST_OPS:
            raise ValueError(
                f"op must be one of {REQUEST_OPS}, got {self.op!r}"
            )
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.tune and self.op not in _TUNED_OPS:
            raise ValueError(f"op {self.op!r} is not tunable")


@dataclass
class Plan:
    """A resolved collective: a family-table row and its bound params.

    ``spec`` is the :class:`~repro.collectives.Family` row and ``params``
    what :func:`plan` bound to it (root, placement, pipeline depth), so
    :func:`execute` is one call into the interpreter and the plan
    inherits the row's fault handling and degrade contract.  ``family``
    is the user-facing slug (kernel name, ``hier-<inter>``, tuner slug).
    ``pick`` / ``source`` / ``flat_fallback`` record a tuned plan's
    decision for the ``tuner.*`` counters; ``cost_s`` is the modelled
    estimate where the resolution produced one (the tuner's entry, or
    the row's priced stages when the request states its payload size).
    """

    request: CollectiveRequest
    config: CollectiveConfig
    family: str
    spec: Family
    params: dict[str, Any]
    cost_s: float | None = None
    source: str = "static"
    pick: Candidate | None = None
    flat_fallback: bool = False


class PlanCache:
    """Thread-safe LRU of resolved plans, keyed by request shape.

    Plans are stateless (a frozen config, an immutable table row and
    its params), so sharing one across calls — and across the
    service's worker threads — is safe.  Hits/misses are counted both
    locally (``hit_rate()``, reported by ``BENCH_service.json``) and in
    the global registry (``plan.cache.hit`` / ``plan.cache.miss``).
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: Hashable) -> Plan | None:
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if METRICS.enabled:
            METRICS.inc("plan.cache.hit" if cached else "plan.cache.miss")
        return cached

    def put(self, key: Hashable, plan_: Plan) -> None:
        with self._lock:
            self._plans[key] = plan_
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "size": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
        }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0


#: the process-wide default cache every facade call goes through.
PLAN_CACHE = PlanCache()


def _plan_key(request, config, network, rates):
    """Everything the *planning* decision depends on.

    Execution-only config (fault plan, retry, thread mode, tracing) is
    deliberately excluded — :func:`execute` reads it at run time.
    """
    parts = [
        request,
        network,
        config.error_bound,
        config.block_size,
        config.n_threadblocks,
        rates,
    ]
    if request.tune:
        # the resolved table file is part of the decision: key on its
        # identity and stamp so swapping or rewriting it invalidates
        path = resolve_table_path(config)
        stamp = None
        if path is not None and os.path.exists(path):
            st = os.stat(path)
            stamp = (st.st_mtime_ns, st.st_size)
        parts.append((path, stamp))
    return tuple(parts)


# --------------------------------------------------------------------- #
# plan(): one resolver for every entry point
# --------------------------------------------------------------------- #
def _tuned_plan(request, config, network, table, rates) -> Plan:
    """The tuner path: table → memo → enumeration, then demotion."""
    if request.roughness is None:
        raise ValueError("tune=True requests need a classified roughness")
    if rates is None:
        rates = PAPER_BROADWELL
    if table is None:
        table = load_default_table(resolve_table_path(config))
    key = TuningKey(
        op=request.op,
        dtype=request.payload.dtype,
        bucket=size_bucket(request.payload.nbytes),
        n_ranks=request.n_ranks,
        fabric=fabric_name(network),
        roughness=request.roughness,
    )
    entry, source = lookup_entry(key, network, rates, request.nodemap, table)

    cand, cost, flat_fallback = entry.pick, entry.cost_s, False
    if cand.hierarchical and request.nodemap is None:
        cand, cost, flat_fallback = entry.flat_pick, entry.flat_cost_s, True
    name, params = candidate_family(cand, request.op, request.nodemap)
    return Plan(
        request=request,
        config=config,
        family=cand.slug(),
        spec=FAMILIES[name],
        params={"root": request.root, **params},
        cost_s=cost,
        source=source,
        pick=cand,
        flat_fallback=flat_fallback,
    )


def _plan_uncached(request, config, network, table, rates) -> Plan:
    if request.tune:
        return _tuned_plan(request, config, network, table, rates)

    hierarchical = request.op == "allreduce" and request.nodemap is not None
    op = "hierarchical" if hierarchical else request.op
    name = _STATIC.get((op, request.kernel))
    if name is None:
        raise ValueError(f"{_EXPECTED_KERNEL[op]}, got {request.kernel!r}")
    params: dict[str, Any] = {
        "root": request.root, "sessions": request.sessions,
    }
    inter = request.inter
    if hierarchical:
        if inter is None:
            # the hierarchical decision point: resolve the inter-node
            # family now so the plan is fully explicit
            inter = select_inter_family(network, request.nodemap)
        params.update(nodemap=request.nodemap, inter=inter)
    cost = None
    if request.payload.nbytes > 0:
        cost = family_cost(
            name,
            request.payload.nbytes * request.sessions,
            rates if rates is not None else PAPER_BROADWELL,
            network,
            n=request.n_ranks,
            **params,
        ).total_time
    slug = _SLUGS.get(op, "{kernel}").format(
        kernel=request.kernel, inter=inter
    )
    return Plan(request, config, slug, FAMILIES[name], params, cost_s=cost)


def plan(
    request: CollectiveRequest,
    config: CollectiveConfig | None = None,
    *,
    network=None,
    table: TuningTable | None = None,
    rates=None,
    cache: PlanCache | None = PLAN_CACHE,
) -> Plan:
    """Resolve a request into a :class:`Plan`.

    ``network`` defaults to the config's fabric (pass the cluster's
    when planning for an existing cluster).  An explicit ``table``
    bypasses the cache — its contents are not part of the key;
    ``cache=None`` disables caching for this call.
    """
    config = config or DEFAULT_CONFIG
    if network is None:
        network = config.network
    key = None
    if cache is not None and table is None:
        try:
            key = _plan_key(request, config, network, rates)
        except TypeError:
            key = None  # unhashable rates/network: plan uncached
        if key is not None:
            cached = cache.get(key)
            if cached is not None:
                return cached
    resolved = _plan_uncached(request, config, network, table, rates)
    if key is not None:
        cache.put(key, resolved)
    return resolved


# --------------------------------------------------------------------- #
# execute(): one calling shape, one return type
# --------------------------------------------------------------------- #
def _sim_cluster(n_ranks, config, trace):
    return SimCluster(
        n_ranks=n_ranks,
        network=config.network,
        thread_speedup=config.thread_speedup,
        multithread=config.multithread,
        trace=TraceLog() if trace else None,
        faults=config.fault_plan,
        retry=config.retry,
    )


def execute(
    plan_: Plan,
    local_data,
    *,
    cluster: SimCluster | None = None,
    config: CollectiveConfig | None = None,
    trace: bool = False,
) -> CollectiveResult:
    """Run a plan's family row and return its :class:`CollectiveResult`.

    ``cluster=None`` builds a :class:`SimCluster` from the execute-time
    ``config`` (default: the plan's) — fault plan, retry, thread mode and
    ``trace`` are read here, never from the cached plan.  The row runs
    under the configured kernel backend; a tuned plan emits its
    ``tuner.*`` counters.  To run an ad-hoc ``(schedule, codec spec,
    state)`` triple, call :class:`~repro.schedule.ScheduleExecutor` or
    :class:`~repro.schedule.MPExecutor` directly.
    """
    config = config or plan_.config
    if cluster is None:
        cluster = _sim_cluster(plan_.request.n_ranks, config, trace)
    if plan_.pick is not None and METRICS.enabled:
        METRICS.inc("tuner.lookups")
        METRICS.inc(f"tuner.source.{plan_.source}")
        METRICS.inc(f"tuner.pick.{plan_.pick.slug()}")
        if plan_.flat_fallback:
            METRICS.inc("tuner.flat_fallback")
    with use_backend(config.kernel_backend):
        return run(
            plan_.spec, cluster, local_data, plan_.config, **plan_.params
        )
