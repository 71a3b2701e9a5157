"""What the benchmark runs and what it reports.

This module is the single source for the workload and metric names:
``BENCHMARK.json`` is checked against it by the self-tests, the runner
emits exactly these names, and ``compare`` reads the bounds from here.
"""

from __future__ import annotations

from dataclasses import dataclass

#: absolute error bound of every compressed op (the config default)
ERROR_BOUND = 1e-4
#: input sets a slice rotates over, so no op reuses the previous op's data
POOL_SETS = 4
#: kernels in cycle order; ``hz`` is the system under test, the other
#: two are the C-Coll and plain baselines on the same inputs
KERNELS = ("hz", "doc", "plain")
FACADE_KERNEL = {"hz": "hzccl", "doc": "ccoll", "plain": "mpi"}
CODEC_KIND = {"hz": "homomorphic", "doc": "doc-reduce", "plain": "plain"}
#: samples a tail percentile needs beyond it (choosing-metrics §1)
MIN_BEYOND = 10
#: value printed for a per-layer metric whose layer does not run on the
#: workload (the driver wants every name on every workload; no measured
#: value reads exactly -1)
NOT_APPLICABLE = -1.0
#: a run is incorrect above this share of failed ops
MAX_FAIL_FRAC = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    plane: str  # sim | mp | service
    n_ranks: int
    elements: int  # float32 elements per rank
    data: str  # dense | quiet
    why: str
    clients: int = 0  # closed-loop clients (service plane only)

    @property
    def input_bytes(self) -> int:
        """Bytes one op reduces: every rank's payload."""
        return self.n_ranks * self.elements * 4


WORKLOADS = (
    Workload(
        "sim-small", "sim", 8, 4096, "dense",
        "8 ranks x 16 KB: ~180 CPR/HPR/DPR calls on 2 KB blocks, so per-call "
        "fixed cost and schedule orchestration do the work; kernel throughput "
        "gains should not move it",
    ),
    Workload(
        "sim-large-dense", "sim", 4, 262144, "dense",
        "4 ranks x 1 MB random walk: every 32-block non-constant, so the "
        "pipeline-4 full-stream path of reduce_fused and kernel throughput "
        "do the work",
    ),
    Workload(
        "sim-large-quiet", "sim", 4, 262144, "quiet",
        "same call and sizes on mostly-constant data: constant-block skip, "
        "verbatim-copy and sparse paths; a dense-path gain that costs the "
        "sparse path shows here",
    ),
    Workload(
        "mp-ring", "mp", 3, 196608, "dense",
        "real processes, socket channels, 3 ranks x 768 KB ring reduce-scatter: "
        "the only workload with a real channel; dispatch, frames and waiting "
        "on the slowest rank dominate",
    ),
    Workload(
        "service-burst", "service", 4, 16384, "dense",
        "8 closed-loop clients on AggregationService: size-triggered flush, "
        "batches of 8, throughput; admission, coalescing, plan cache and the "
        "to_thread hop",
        clients=8,
    ),
    Workload(
        "service-lone", "service", 4, 16384, "dense",
        "1 closed-loop client on the same service: window-expiry flush, batch "
        "of 1; a batching gain bought with a longer window or heavier "
        "admission shows here as a loss",
        clients=1,
    ),
)
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}

#: AggregationService settings of the service workloads
SERVICE_KWARGS = {"window_s": 0.005, "max_batch": 8, "max_pending": 64}
#: MPCluster settings of mp-ring.  The socket transport, not the default
#: ``shm`` ring: the ring desynchronises about once per 3000-4000
#: schedules, and the driver accepts only workloads on which no op fails
MP_KWARGS = {"transport": "socket", "recv_timeout_s": 2.0}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # lower | higher
    bound: float | None = None  # end-to-end only: share of the parent's median


#: the metrics a user of the system sees; same names on every workload.
#: The driver bounds each by a share of the parent's median, so none may
#: read 0: the share of failed ops is reported as its complement,
#: ``ok_frac`` = 1 - failed / attempted, and 0.01 of a median of 1 is
#: the +0.01 absolute the failures may grow by.  (Per-layer metrics have
#: no bound, so counts such as ``runtime.mp.desyncs`` read 0 when they
#: are 0.)  A timing bound is three times the widest run-to-run quartile
#: spread seen in sets of ten runs on the 2-vCPU reference box, capped at
#: the driver's 0.25 (README "Repeatability" has the spreads).  The box's
#: speed drifts both ways by 10-20 % for seconds at a time, so every
#: timing sits at the cap; the counts are tighter.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("hz_op_ms_p50", "ms", "lower", 0.25),
    Metric("hz_op_ms_p90", "ms", "lower", 0.25),
    Metric("doc_op_ms_p50", "ms", "lower", 0.25),
    Metric("plain_op_ms_p50", "ms", "lower", 0.25),
    Metric("hz_goodput_MBps", "MB/s", "higher", 0.25),
    Metric("hz_wire_ratio", "x", "higher", 0.10),
    Metric("peak_rss_MB", "MB", "lower", 0.15),
    Metric("ok_frac", "frac", "higher", 0.01),
)


def _layer(prefix: str, *rows: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{n}", u, b) for n, u, b in rows)


PER_LAYER = (
    *_layer(
        "compression",
        ("cpr_us_p50", "us", "lower"),
        ("dpr_us_p50", "us", "lower"),
        ("cpr_MBps", "MB/s", "higher"),
        ("dpr_MBps", "MB/s", "higher"),
        ("ratio", "x", "higher"),
        ("cpr_floor_us", "us", "lower"),
        ("dpr_floor_us", "us", "lower"),
        ("cpr_calls_per_op", "count", "lower"),
        ("dpr_calls_per_op", "count", "lower"),
        ("cpr_self_ms", "ms", "lower"),
        ("dpr_self_ms", "ms", "lower"),
    ),
    *_layer(
        "homomorphic",
        ("hpr_us_p50", "us", "lower"),
        ("hpr_MBps", "MB/s", "higher"),
        ("hpr_floor_us", "us", "lower"),
        ("fused_k_us_p50", "us", "lower"),
        ("hpr_over_doc", "x", "lower"),
        ("pipeline4_frac", "frac", "lower"),
        ("hpr_calls_per_op", "count", "lower"),
        ("hpr_self_ms", "ms", "lower"),
    ),
    *_layer(
        "kernels",
        ("encode_MBps", "MB/s", "higher"),
        ("decode_MBps", "MB/s", "higher"),
        ("reduce_fused_k2_MBps", "MB/s", "higher"),
        ("stream_MBps", "MB/s", "higher"),
        ("hpr_frac_stream", "frac", "higher"),
        ("arena_allocs_per_op", "count", "lower"),
    ),
    *_layer(
        "schedule",
        ("executor_self_ms", "ms", "lower"),
        ("gen_us_p50", "us", "lower"),
        ("cost_us_p50", "us", "lower"),
        ("rounds_per_op", "count", "lower"),
    ),
    *_layer(
        "core",
        ("plan_miss_us", "us", "lower"),
        ("plan_hit_us", "us", "lower"),
        ("plan_cache_hit_frac", "frac", "higher"),
        ("plan_self_ms", "ms", "lower"),
        ("execute_self_ms", "ms", "lower"),
        ("facade_self_ms", "ms", "lower"),
        ("first_op_ms", "ms", "lower"),
        ("layers_sum_frac", "frac", "higher"),
        ("floor_share", "frac", "lower"),
    ),
    *_layer(
        "runtime.sim",
        ("model_makespan_ms", "ms", "lower"),
        ("model_hz_speedup", "x", "higher"),
        ("wire_bytes_per_op", "bytes", "lower"),
    ),
    *_layer(
        "runtime.mp",
        ("start_s", "s", "lower"),
        ("makespan_ms_p50.hz", "ms", "lower"),
        ("makespan_ms_p50.plain", "ms", "lower"),
        ("compute_ms_p50.hz", "ms", "lower"),
        ("compute_ms_p50.plain", "ms", "lower"),
        ("wait_ms_p50.hz", "ms", "lower"),
        ("wait_ms_p50.plain", "ms", "lower"),
        ("dispatch_ms_p50.hz", "ms", "lower"),
        ("dispatch_ms_p50.plain", "ms", "lower"),
        ("hop_us", "us", "lower"),
        ("chan_MBps", "MB/s", "higher"),
        ("frames_per_op", "count", "lower"),
        ("rank_skew_frac", "frac", "lower"),
        ("retransmits", "count", "lower"),
        ("desyncs", "count", "lower"),
        ("restarts", "count", "lower"),
    ),
    *_layer(
        "service",
        ("sessions_per_s", "1/s", "higher"),
        ("batch_mean", "count", "higher"),
        ("exec_ms_p50", "ms", "lower"),
        ("latency_over_exec", "x", "lower"),
        ("submit_self_ms", "ms", "lower"),
        ("rejected_frac", "frac", "lower"),
    ),
    *_layer(
        "obs",
        ("bench_trace_overhead_frac", "frac", "lower"),
        ("program_trace_overhead_frac", "frac", "lower"),
        ("wall_over_cpu", "x", "lower"),
        ("sentinel_spread", "frac", "lower"),
    ),
)
