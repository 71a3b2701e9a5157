"""One slice of one workload, run in a fresh process.

``python -m e2e_bench.worker '<json spec>'`` sets the workload up (imports,
input generation, cluster or service start, warm-up ops — all of it is
``setup_s``), measures for the slice's budget, verifies every output
outside the timed region, and prints one JSON result on its last line.
A fresh process per slice keeps ``setup_s``, the cold first op and the
peak RSS honest, and lets the parent interleave workloads.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .gen import make_pool, reference
from .spec import (
    CODEC_KIND,
    ERROR_BOUND,
    FACADE_KERNEL,
    KERNELS,
    MP_KWARGS,
    POOL_SETS,
    SERVICE_KWARGS,
    WORKLOAD_BY_NAME,
    Workload,
)
from .trace import Recorder, spans_to_json, summarize

#: every verification bound carries 0.1 % slack for float64 rounding
_SLACK = 1.001
#: warm-up ops per kernel: one per input set fills plan cache and arenas
#: and records each set's wire bytes
_WARM_OPS = POOL_SETS
#: a traced slice alternates untraced and traced blocks this long, so a
#: slow second on the box lands on both sides of the overhead ratio
_TRACE_BLOCK_S = 0.3
#: share of a traced slice's seconds spent in blocks; probes take the rest
_TRACE_BLOCK_SHARE = 0.6
#: share of a service slice spent on the facade baselines
_BASELINE_SHARE = 0.2
_MAX_FAILURE_NOTES = 5


class Budget:
    """Either a deadline (``seconds``) or a fixed number of cycles."""

    def __init__(self, seconds: float | None, cycles: int | None) -> None:
        self.cycles = cycles
        self.deadline = (
            None if cycles is not None else time.perf_counter() + seconds
        )
        self.done = 0

    def more(self) -> bool:
        """True while another cycle fits; counts the cycle it admits."""
        if self.cycles is not None:
            if self.done >= self.cycles:
                return False
        elif time.perf_counter() >= self.deadline:
            return False
        self.done += 1
        return True


@dataclass
class Tally:
    """What one block of ops produced (times in ms unless named ``_s``)."""

    samples: dict = field(default_factory=lambda: {k: [] for k in KERNELS})
    attempted: int = 0
    failed: int = 0
    bound_misses: int = 0  # failures that were a verification miss
    #: per hz sample, the time the caller spent on it: the op itself, or
    #: on the service a client's whole turn (session plus its check)
    hz_period: list = field(default_factory=list)
    hz_busy_s: float = 0.0  # sum of hz op time, or the service window
    hz_cpu_s: float = 0.0  # thread CPU time of the same ops (sim plane)
    failures: list = field(default_factory=list)
    mp_runs: dict = field(default_factory=lambda: {k: [] for k in KERNELS})

    def ok(self, kernel: str, seconds: float, period: float = 0.0) -> None:
        self.attempted += 1
        self.samples[kernel].append(seconds * 1e3)
        if kernel == "hz":
            self.hz_period.append((period or seconds) * 1e3)

    def fail(self, kernel: str, why: str, bound_miss: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        self.bound_misses += bound_miss
        if len(self.failures) < _MAX_FAILURE_NOTES:
            self.failures.append(f"{kernel}: {why}")


class Driver:
    """Shared by the three planes: inputs, references and the bounds.

    Bounds against the float64 sum of the inputs: hz quantises each
    input once (n*eb), doc requantises every ring round ((2n-3)*eb),
    plain only rounds in float32 (rtol 1e-5 of the largest sum).
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.w = workload
        self.pool = make_pool(workload, seed)
        self.refs = [reference(arrays) for arrays in self.pool]
        n = workload.n_ranks
        self.tol = {
            "hz": n * ERROR_BOUND * _SLACK,
            "doc": max(2 * n - 3, 1) * ERROR_BOUND * _SLACK,
        }
        self.plain_tol = [
            1e-5 * max(float(np.abs(ref).max()), 1.0) * _SLACK
            for ref in self.refs
        ]
        self.ops = 0  # cycle counter: picks the input set
        self.first_op_ms = 0.0
        #: per input set, bytes a plain / hz op of this workload puts on
        #: the wire (counts: they repeat exactly for a seed)
        self.wire = {"plain": [0] * POOL_SETS, "hz": [0] * POOL_SETS}
        self.counters: dict = {}
        self.extra: dict = {}

    def wire_totals(self) -> dict:
        """Plain and hz wire bytes of one pass over the pool (the sets
        both kernels completed at least once, which is all of them unless
        ops failed)."""
        both = [s for s in range(POOL_SETS)
                if self.wire["plain"][s] and self.wire["hz"][s]]
        return {k: sum(v[s] for s in both) for k, v in self.wire.items()}

    def within(self, kernel: str, s: int, out, ref=None) -> bool:
        ref = self.refs[s] if ref is None else ref
        tol = self.plain_tol[s] if kernel == "plain" else self.tol[kernel]
        if out is None or out.shape != ref.shape:
            return False
        return bool(np.max(np.abs(out.astype(np.float64) - ref)) <= tol)

    # planes implement: setup(), run_block(tally, budget, rec), close()

    def warm(self, one, tolerate_failures: bool = False) -> None:
        """``_WARM_OPS`` cycles through ``one(kernel, tally)``; the first
        hz op of the process is the cold one."""
        tally = Tally()
        for _ in range(_WARM_OPS):
            for kernel in KERNELS:
                one(kernel, tally)
            if not self.first_op_ms and tally.samples["hz"]:
                self.first_op_ms = tally.samples["hz"][0]
            self.ops += 1
        if tally.failed and not tolerate_failures:
            raise RuntimeError(f"warm-up op failed: {tally.failures}")

    def run_cycles(self, one, tally: Tally, budget: Budget, rec) -> None:
        """hz -> doc -> plain cycles; only hz ops are ever traced."""
        while budget.more():
            for kernel in KERNELS:
                if rec is not None:
                    rec.enabled = kernel == "hz"
                one(kernel, tally)
            self.ops += 1
        if rec is not None:
            rec.enabled = False


class SimDriver(Driver):
    """``HZCCL().allreduce`` over the simulated cluster."""

    def setup(self) -> None:
        from repro import HZCCL

        self.lib = HZCCL()
        self.warm(self.one)

    def one(self, kernel: str, tally: Tally) -> None:
        s = self.ops % POOL_SETS
        data = self.pool[s]
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = self.lib.allreduce(data, kernel=FACADE_KERNEL[kernel])
        except Exception as exc:  # noqa: BLE001 - the op failed; count it
            tally.fail(kernel, f"{type(exc).__name__}: {exc}")
            return
        seconds = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        outs = result.outputs
        # every rank assembles the same gathered blocks, so ranks 1.. are
        # compared bytewise with rank 0 before falling back to the bound
        good = not result.degraded and self.within(kernel, s, outs[0])
        for out in outs[1:]:
            good = good and (
                np.array_equal(out, outs[0]) or self.within(kernel, s, out)
            )
        if not good:
            tally.fail(kernel, f"set {s}: output outside bound", True)
            return
        tally.ok(kernel, seconds)
        if kernel in self.wire:
            self.wire[kernel][s] = result.bytes_on_wire
        if kernel == "hz":
            tally.hz_busy_s += seconds
            tally.hz_cpu_s += cpu
            self.extra["model_makespan_s"] = result.total_time
            self.extra["pipeline_counts"] = [
                int(c) for c in result.pipeline_stats.counts
            ]
        elif kernel == "plain":
            self.extra["model_plain_makespan_s"] = result.total_time

    def run_block(self, tally: Tally, budget: Budget, rec) -> None:
        self.run_cycles(self.one, tally, budget, rec)

    def close(self) -> None:
        pass


class MPDriver(Driver):
    """``MPExecutor.run(ring_reduce_scatter(n))`` on real processes.

    A run that raises (a desynchronised channel, a timeout, a dead rank)
    is a failed op, the poisoned cluster is replaced (restart time is not
    op time) and the slice continues.
    """

    cluster = None

    def setup(self) -> None:
        from repro.collectives.base import split_blocks
        from repro.core.config import DEFAULT_CONFIG as cfg
        from repro.schedule import CodecSpec, ring_reduce_scatter

        from .probes import compressor

        self.split = split_blocks
        self.decompress = compressor().decompress
        n = self.w.n_ranks
        self.schedule = ring_reduce_scatter(n)
        self.specs = {
            k: CodecSpec(
                CODEC_KIND[k],
                error_bound=ERROR_BOUND,
                block_size=cfg.block_size,
                n_threadblocks=cfg.n_threadblocks,
            )
            for k in KERNELS
        }
        self.ref_blocks = [np.array_split(ref, n) for ref in self.refs]
        self.counters = {"desyncs": 0, "restarts": 0}
        self.extra["start_s"] = []
        self.start_cluster()
        # a desync during warm-up restarts the cluster like any other;
        # it shows in runtime.mp.desyncs, not in the timed samples
        self.warm(self.one, tolerate_failures=True)

    def start_cluster(self) -> None:
        from repro.runtime.mp_cluster import MPCluster
        from repro.schedule import MPExecutor

        t0 = time.perf_counter()
        self.cluster = MPCluster(self.w.n_ranks, **MP_KWARGS)
        self.cluster.start()
        self.extra["start_s"].append(time.perf_counter() - t0)
        self.executors = {
            k: MPExecutor(self.cluster, spec) for k, spec in self.specs.items()
        }

    def one(self, kernel: str, tally: Tally) -> None:
        s = self.ops % POOL_SETS
        n = self.w.n_ranks
        state = [dict(enumerate(self.split(a, n))) for a in self.pool[s]]
        t0 = time.perf_counter()
        try:
            run = self.executors[kernel].run(self.schedule, state)
        except Exception as exc:  # noqa: BLE001 - desync, timeout, dead rank
            first_line = str(exc).splitlines()[0] if str(exc) else ""
            tally.fail(kernel, f"{type(exc).__name__}: {first_line[:200]}")
            self.counters["desyncs"] += 1
            self.cluster.shutdown()
            self.start_cluster()
            self.counters["restarts"] += 1
            return
        seconds = time.perf_counter() - t0
        good = not run.degraded
        for rank in range(n) if good else ():
            owned = (rank + 1) % n
            block = state[rank].get(owned)
            if block is not None and not isinstance(block, np.ndarray):
                block = self.decompress(block)
            good = good and self.within(
                kernel, s, block, self.ref_blocks[s][owned]
            )
        if not good:
            tally.fail(kernel, f"set {s}: owned block outside bound", True)
            return
        tally.ok(kernel, seconds)
        if kernel in self.wire:
            self.wire[kernel][s] = run.wire
        if kernel == "hz":
            tally.hz_busy_s += seconds
        tally.mp_runs[kernel].append(
            {
                "wall_s": seconds,
                "makespan_s": run.makespan_s,
                "compute_s": run.compute_s,
                "rank_s": list(run.rank_seconds),
                "frames": run.stats.get("frames_sent", 0),
                "retransmits": run.stats.get("retransmits", 0),
            }
        )

    def run_block(self, tally: Tally, budget: Budget, rec) -> None:
        self.run_cycles(self.one, tally, budget, rec)

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()


class ServiceDriver(Driver):
    """Closed-loop clients on ``AggregationService``.

    Each client awaits its reply before the next ``submit``; an op is one
    session from ``submit`` to result.  The service reduces with the hz
    kernel only, so the doc and plain baselines on these workloads are
    what a caller without the service would run on the same session:
    direct facade calls, ``reduce_scatter(kernel="ccoll")`` (the repo has
    no rooted C-Coll reduce) and ``reduce(kernel="mpi")``.
    """

    loop = None

    def setup(self) -> None:
        from repro import HZCCL
        from repro.service import AggregationService

        self.lib = HZCCL()
        self.svc = AggregationService(**SERVICE_KWARGS)
        self.loop = asyncio.new_event_loop()
        tally = Tally()
        for _ in range(_WARM_OPS):
            results = self.loop.run_until_complete(self.one_pass(tally))
        if tally.failed:
            raise RuntimeError(f"warm-up session failed: {tally.failures}")
        self.first_op_ms = tally.samples["hz"][0]
        self.warm(self.baseline)
        # the last pass gives the wire bytes of one pass over the pool at
        # the workload's batching (a batch's bytes, shared by its sessions)
        self.wire_pass = {
            "hz": sum(res.bytes_on_wire / res.batched for _, res in results),
            "plain": sum(self.wire["plain"][s] for s, _ in results),
        }

    def wire_totals(self) -> dict:
        return self.wire_pass

    def baseline(self, kernel: str, tally: Tally) -> None:
        """One direct facade call (doc or plain); hz goes through the
        service instead."""
        if kernel == "hz":
            return
        s = self.ops % POOL_SETS
        data = self.pool[s]
        t0 = time.perf_counter()
        try:
            if kernel == "doc":
                result = self.lib.reduce_scatter(data, kernel="ccoll")
                out = np.concatenate(result.outputs[-1:] + result.outputs[:-1])
            else:
                result = self.lib.reduce(data, root=0, kernel="mpi")
                out = result.outputs[0]
        except Exception as exc:  # noqa: BLE001 - the op failed; count it
            tally.fail(kernel, f"{type(exc).__name__}: {exc}")
            return
        seconds = time.perf_counter() - t0
        if result.degraded or not self.within(kernel, s, out):
            tally.fail(kernel, f"set {s}: output outside bound", True)
            return
        tally.ok(kernel, seconds)
        if kernel == "plain":
            self.wire["plain"][s] = result.bytes_on_wire

    async def session(self, client: int, s: int, tally: Tally):
        t0 = time.perf_counter()
        try:
            res = await self.svc.submit(
                self.pool[s], tenant=f"client-{client}"
            )
        except Exception as exc:  # noqa: BLE001 - refused or failed session
            tally.fail("hz", f"{type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        if res.degraded or not self.within("hz", s, res.output):
            tally.fail("hz", f"set {s}: session output outside bound", True)
            return None
        tally.ok("hz", seconds, period=time.perf_counter() - t0)
        return res

    async def one_pass(self, tally: Tally):
        """The pool once at the workload's concurrency: every client
        submits at the same time, ``POOL_SETS / clients`` rounds (at
        least one)."""
        out = []
        clients = self.w.clients
        for start in range(0, max(POOL_SETS, clients), clients):
            sets = [(start + c) % POOL_SETS for c in range(clients)]
            results = await asyncio.gather(
                *(self.session(c, s, tally) for c, s in enumerate(sets))
            )
            out += [(s, r) for s, r in zip(sets, results) if r is not None]
        return out

    async def client(self, c: int, tally: Tally, budget: Budget) -> None:
        i = self.ops + c
        while budget.more():
            await self.session(c, i % POOL_SETS, tally)
            i += 1

    async def window(self, tally: Tally, budget: Budget) -> None:
        t0 = time.perf_counter()
        await asyncio.gather(
            *(self.client(c, tally, budget) for c in range(self.w.clients))
        )
        tally.hz_busy_s += time.perf_counter() - t0

    def run_block(self, tally: Tally, budget: Budget, rec) -> None:
        if budget.cycles is not None:
            base = Budget(None, budget.cycles)
            # every client takes its own cycles off one shared budget
            budget = Budget(None, budget.cycles * self.w.clients)
        else:
            left = budget.deadline - time.perf_counter()
            base = Budget(_BASELINE_SHARE * left, None)
        self.run_cycles(self.baseline, tally, base, None)
        if rec is not None:
            rec.enabled = True
        try:
            self.loop.run_until_complete(self.window(tally, budget))
        finally:
            if rec is not None:
                rec.enabled = False
        self.ops += budget.done

    def close(self) -> None:
        if self.loop is None:
            return
        self.extra["service_stats"] = {
            k: v for k, v in self.svc.stats().items() if k != "tenants"
        }
        self.loop.run_until_complete(self.svc.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


DRIVERS = {"sim": SimDriver, "mp": MPDriver, "service": ServiceDriver}


# ------------------------------------------------------------------ #
def sentinel_ms() -> float:
    """The noise sentinel: a fixed NumPy spin (100 ``np.add`` sweeps over
    a 4 MB array, ~40 ms), so a reader can tell a noisy box from a real
    change.  A few untimed sweeps first touch the pages and wake the
    core, which a cold spin would read as noise."""
    a = np.ones(1 << 20, dtype=np.float32)
    out = np.empty_like(a)
    for _ in range(20):
        np.add(a, a, out=out)
    t0 = time.perf_counter()
    for _ in range(100):
        np.add(a, a, out=out)
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its waited-for children (KB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_slice(spec: dict) -> dict:
    """Set up, measure, tear down; returns the slice's JSON result.

    ``spec``: workload, seed, seconds or cycles, trace (bool), t_spawn
    (``time.time()`` of the parent just before it started this process).
    """
    workload = WORKLOAD_BY_NAME[spec["workload"]]
    traced = bool(spec.get("trace"))
    driver = DRIVERS[workload.plane](workload, spec["seed"])
    # wrappers exist only inside traced blocks: the plain pass, and the
    # untraced blocks a traced slice compares against, run the program as is
    rec = Recorder() if traced else None
    try:
        driver.setup()
        setup_s = time.time() - spec["t_spawn"]
        sentinels = [sentinel_ms()]
        tallies = {"plain": Tally(), "traced": Tally()}
        seconds, cycles = spec.get("seconds"), spec.get("cycles")
        if traced:
            from repro.core.pipeline import PLAN_CACHE

            before = PLAN_CACHE.stats()
            pairs = 1
            if cycles is None:
                pairs = max(
                    1, round(_TRACE_BLOCK_SHARE * seconds / _TRACE_BLOCK_S / 2)
                )
            block_p50 = []  # hz median of each block, untraced first
            for b in range(2 * pairs):
                budget = Budget(_TRACE_BLOCK_S, cycles)
                tally = tallies["traced" if b % 2 else "plain"]
                seen = len(tally.samples["hz"])
                if b % 2:
                    with rec:
                        driver.run_block(tally, budget, rec)
                else:
                    driver.run_block(tally, budget, None)
                fresh = tally.samples["hz"][seen:]
                block_p50.append(float(np.median(fresh)) if fresh else None)
            after = PLAN_CACHE.stats()
            plan_stats = {k: after[k] - before[k] for k in ("hits", "misses")}
            sentinels.append(sentinel_ms())
        else:
            driver.run_block(tallies["plain"], Budget(seconds, cycles), None)
    finally:
        driver.close()
    result = {
        "workload": workload.name,
        "setup_s": setup_s,
        "sentinel_ms": sentinels,
        "first_op_ms": driver.first_op_ms,
        "peak_rss_MB": peak_rss_mb(),
        "wire": driver.wire_totals(),
        "counters": driver.counters,
        "extra": driver.extra,
        "tallies": {mode: asdict(t) for mode, t in tallies.items()},
        "meta": run_metadata(),
    }
    if traced:
        from .probes import run_probes

        result["plan_cache"] = plan_stats
        result["block_hz_p50"] = block_p50
        result["spans"] = spans_to_json(rec.spans)
        result["span_summary"] = summarize(rec.spans)
        result["trace_notes"] = list(dict.fromkeys(rec.notes))
        result["probes"] = run_probes(workload, driver.pool)
    return result


def run_metadata() -> dict:
    import os
    import platform

    from repro.kernels.dispatch import current_backend_name

    return {
        "backend": current_backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str]) -> int:
    result = run_slice(json.loads(argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
