"""Probes: direct timed calls into one layer's public functions.

Each probe runs at least ``MIN_REPEATS`` times on one ring block of the
workload's own data (the whole session vector on the service plane,
whose batched reduce compresses vectors unsplit) and reports the
median.  Probes run in the traced slice's process after its blocks, so
arenas and caches are as warm as the ops left them.  A probe that
cannot run (a class a later refactor removed, a desynchronised ring)
is dropped with a note; the metric then reads not-applicable.
"""

from __future__ import annotations

import time

import numpy as np

from .spec import ERROR_BOUND, MP_KWARGS, Workload
from .stats import median

MIN_REPEATS = 30
#: a probe keeps repeating up to this long, for a steadier median
_PROBE_SECONDS = 0.08
#: elements of the per-call floor probes (4 KB of float32)
FLOOR_ELEMENTS = 1024
#: STREAM triad array size (three of them), far above any LLC here
_STREAM_MB = 16.0
#: off/on pairs of the program-trace probe
_TRACE_PAIRS = 10
_MB = 1e6


def timed(fn, min_repeats: int = MIN_REPEATS) -> float:
    """Median seconds per call of ``fn`` (one untimed warm-up call)."""
    fn()
    times = []
    stop = time.perf_counter() + _PROBE_SECONDS
    while len(times) < min_repeats or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def probe_blocks(workload: Workload, pool) -> list[np.ndarray]:
    """One block per rank: ring block 0 of input set 0 (service: the
    whole vector)."""
    if workload.plane == "service":
        return list(pool[0])
    return [
        np.ascontiguousarray(np.array_split(a, workload.n_ranks)[0])
        for a in pool[0]
    ]


def run_probes(workload: Workload, pool) -> dict:
    """Every probe the workload's plane supports -> {name: value}; notes
    about dropped probes ride under ``"notes"``."""
    out: dict = {}
    notes: list[str] = []
    groups = [compression_probes, kernel_probes, schedule_probes]
    if workload.plane != "mp":
        groups += [core_probes, program_trace_probe]
    if workload.plane == "mp":
        groups.append(mp_probes)
    if workload.plane == "service":
        groups.append(service_probes)
    for group in groups:
        try:
            out.update(group(workload, pool))
        except Exception as exc:  # noqa: BLE001 - drop the group, keep the run
            notes.append(f"{group.__name__}: {type(exc).__name__}: {exc}")
    out["notes"] = notes
    return out


def compressor():
    """``FZLight`` with the geometry the collectives configure."""
    from repro.compression.fzlight import FZLight
    from repro.core.config import DEFAULT_CONFIG as cfg

    return FZLight(block_size=cfg.block_size, n_threadblocks=cfg.n_threadblocks)


# ------------------------------------------------------------------ #
def compression_probes(workload: Workload, pool) -> dict:
    """CPR / DPR / HPR on the workload's block and on a 4 KB input."""
    from repro.homomorphic.hzdynamic import HZDynamic

    comp = compressor()
    engine = HZDynamic()
    blocks = probe_blocks(workload, pool)
    nbytes = blocks[0].nbytes
    fields = [comp.compress(b, abs_eb=ERROR_BOUND) for b in blocks]
    small = [b[:FLOOR_ELEMENTS] for b in blocks[:2]]
    small_fields = [comp.compress(b, abs_eb=ERROR_BOUND) for b in small]

    cpr = timed(lambda: comp.compress(blocks[0], abs_eb=ERROR_BOUND))
    dpr = timed(lambda: comp.decompress(fields[0]))
    hpr = timed(lambda: engine.add(fields[0], fields[1]))
    fused = timed(lambda: engine.reduce_fused(fields))
    add = timed(lambda: blocks[0] + blocks[1])
    fold = HZDynamic()  # fresh stats: one k-way fold of the ranks' blocks
    fold.reduce_fused(fields)
    return {
        "homomorphic.pipeline4_frac":
            float(fold.stats.counts[3]) / max(fold.stats.total, 1),
        "compression.cpr_us_p50": cpr * 1e6,
        "compression.dpr_us_p50": dpr * 1e6,
        "compression.cpr_MBps": nbytes / cpr / _MB,
        "compression.dpr_MBps": nbytes / dpr / _MB,
        "compression.ratio": fields[0].compression_ratio,
        "compression.cpr_floor_us": 1e6 * timed(
            lambda: comp.compress(small[0], abs_eb=ERROR_BOUND)
        ),
        "compression.dpr_floor_us": 1e6 * timed(
            lambda: comp.decompress(small_fields[0])
        ),
        "homomorphic.hpr_us_p50": hpr * 1e6,
        # both operands' logical bytes pass through one HPR
        "homomorphic.hpr_MBps": 2 * nbytes / hpr / _MB,
        "homomorphic.hpr_floor_us": 1e6 * timed(
            lambda: engine.add(small_fields[0], small_fields[1])
        ),
        "homomorphic.fused_k_us_p50": fused * 1e6,
        # paper Table 4: one HPR against the DOC step it replaces
        "homomorphic.hpr_over_doc": hpr / (2 * dpr + add + cpr),
    }


def kernel_probes(workload: Workload, pool) -> dict:
    """The backend's encode / decode / fused-reduce on the same block,
    against the repo's own STREAM triad (``bench-kernels``' roofline
    denominator) in the same run."""
    from repro.bench.kernels import stream_triad_gbps
    from repro.kernels.dispatch import get_backend

    backend = get_backend()
    comp = compressor()
    bs = comp.block_size
    fields = [
        comp.compress(b, abs_eb=ERROR_BOUND)
        for b in probe_blocks(workload, pool)[:2]
    ]
    f = fields[0]
    deltas = np.array(
        backend.decode_blocks(f.code_lengths, f.payload, bs, offsets=f.offsets)
    )
    logical = deltas.size * 4  # float32 bytes the blocks stand for
    encode = timed(lambda: backend.encode_with_offsets(deltas, bs))
    decode = timed(
        lambda: backend.decode_blocks(
            f.code_lengths, f.payload, bs, offsets=f.offsets
        )
    )
    lens = np.stack([x.code_lengths for x in fields])
    offs = np.stack([x.offsets for x in fields])
    payloads = [x.payload for x in fields]
    weights = np.ones(2, dtype=np.int64)
    fused = timed(lambda: backend.reduce_fused(lens, offs, payloads, weights, bs))

    stream = stream_triad_gbps(mb=_STREAM_MB, repeats=5)["gbps"] * 1e3
    fused_mbps = 2 * logical / fused / _MB
    return {
        "kernels.encode_MBps": logical / encode / _MB,
        "kernels.decode_MBps": logical / decode / _MB,
        "kernels.reduce_fused_k2_MBps": fused_mbps,
        "kernels.stream_MBps": stream,
        "kernels.hpr_frac_stream": fused_mbps / stream,
    }


def _hz_schedules(workload: Workload):
    """(generator call, discipline) pairs of one hz op of the workload."""
    from repro.schedule import (
        HZ_GATHER,
        HZ_REDUCE,
        batched_fused_reduce,
        ring_allgather,
        ring_reduce_scatter,
    )

    n = workload.n_ranks
    if workload.plane == "sim":  # fused allreduce: RS hands AG compressed blocks
        return [
            (lambda: ring_reduce_scatter(n, finalize=False), HZ_REDUCE),
            (lambda: ring_allgather(n), HZ_GATHER),
        ]
    if workload.plane == "mp":
        return [(lambda: ring_reduce_scatter(n), HZ_REDUCE)]
    return [(lambda: batched_fused_reduce(n, workload.clients, 0), HZ_REDUCE)]


def schedule_probes(workload: Workload, pool) -> dict:
    from repro.core.config import DEFAULT_CONFIG as cfg
    from repro.core.cost_model import PAPER_BROADWELL
    from repro.schedule import schedule_cost

    stages = _hz_schedules(workload)
    schedules = [(gen(), disc) for gen, disc in stages]
    total = workload.elements * 4 * max(workload.clients, 1)

    def generate():
        for gen, _ in stages:
            gen()

    def cost():
        for schedule, disc in schedules:
            schedule_cost(schedule, disc, total, PAPER_BROADWELL, cfg.network)

    return {
        "schedule.gen_us_p50": 1e6 * timed(generate),
        "schedule.cost_us_p50": 1e6 * timed(cost),
        "schedule.rounds_per_op": sum(
            len(list(schedule.rounds())) for schedule, _ in schedules
        ),
    }


def _hz_request(workload: Workload):
    from repro.core.pipeline import CollectiveRequest, PayloadSpec

    if workload.plane == "service":
        return CollectiveRequest(
            op="batched-reduce",
            n_ranks=workload.n_ranks,
            payload=PayloadSpec(elements=workload.elements),
            sessions=workload.clients,
        )
    return CollectiveRequest(op="allreduce", n_ranks=workload.n_ranks)


def core_probes(workload: Workload, pool) -> dict:
    """``plan()`` on the workload's request, cold and cached, on a cache
    of the probe's own."""
    from repro.core.pipeline import PlanCache, plan

    request = _hz_request(workload)
    cache = PlanCache()

    def miss():
        cache.clear()
        plan(request, cache=cache)

    return {
        "core.plan_miss_us": 1e6 * timed(miss),
        "core.plan_hit_us": 1e6 * timed(lambda: plan(request, cache=cache)),
    }


def program_trace_probe(workload: Workload, pool) -> dict:
    """The same hz op with the program's own observability on
    (``HZCCL(trace=True)`` + the METRICS registry) against off."""
    from repro import HZCCL
    from repro.obs.metrics import metrics_enabled

    if workload.plane == "service":
        batch = [pool[c % len(pool)] for c in range(workload.clients)]

        def op(lib):
            lib.batched_reduce(batch)
    else:
        def op(lib):
            lib.allreduce(pool[0])

    off, on = HZCCL(), HZCCL(trace=True)
    times = {"off": [], "on": []}
    op(off)
    for _ in range(_TRACE_PAIRS):
        t0 = time.perf_counter()
        op(off)
        times["off"].append(time.perf_counter() - t0)
        with metrics_enabled():
            t0 = time.perf_counter()
            op(on)
            times["on"].append(time.perf_counter() - t0)
    return {
        "obs.program_trace_overhead_frac":
            median(times["on"]) / median(times["off"]) - 1.0
    }


def service_probes(workload: Workload, pool) -> dict:
    """Batch execute time without the service around it."""
    from repro import HZCCL

    lib = HZCCL()
    batch = [pool[c % len(pool)] for c in range(workload.clients)]
    return {
        "service.exec_ms_p50": 1e3 * timed(lambda: lib.batched_reduce(batch))
    }


def mp_probes(workload: Workload, pool) -> dict:
    """Channel alpha and beta from two plain rings on a cluster of the
    probe's own: 32-element blocks (latency only) and 256 KB blocks."""
    from repro.collectives.base import split_blocks
    from repro.runtime.mp_cluster import MPCluster
    from repro.schedule import CodecSpec, MPExecutor, ring_reduce_scatter

    n = workload.n_ranks
    hops = n - 1  # ring rounds on the critical path
    schedule = ring_reduce_scatter(n)

    with MPCluster(n, **MP_KWARGS) as cluster:
        executor = MPExecutor(cluster, CodecSpec("plain"))

        def makespan(block_elements: int) -> float:
            arrays = [
                np.full(block_elements * n, float(r), dtype=np.float32)
                for r in range(n)
            ]
            spans = []
            for _ in range(MIN_REPEATS + 1):
                state = [dict(enumerate(split_blocks(a, n))) for a in arrays]
                spans.append(executor.run(schedule, state).makespan_s)
            return median(spans[1:])

        small = makespan(32)
        big_block = 256 * 1024 // 4
        big = makespan(big_block)
    alpha = small / hops
    crit_bytes = hops * big_block * 4
    out = {"runtime.mp.hop_us": alpha * 1e6}
    if big > small:
        out["runtime.mp.chan_MBps"] = crit_bytes / (big - small) / _MB
    return out
