"""Run slices in fresh worker processes and turn them into metrics.

The plain pass gives the end-to-end metrics: every workload runs
``rounds`` slices, interleaved with the other workloads when several
are selected, and the samples of a workload's slices are pooled.  The
traced pass is one extra slice per workload; the per-layer metrics come
from it and the end-to-end metrics never do.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

from . import ROOT
from .spec import (
    END_TO_END,
    KERNELS,
    MAX_FAIL_FRAC,
    NOT_APPLICABLE,
    PER_LAYER,
    POOL_SETS,
    Workload,
)
from .stats import TooFewSamples, median, tail_percentile

#: a slice that has not answered by then is killed (the driver allows a
#: whole run 180 s)
_SLICE_TIMEOUT_S = 170
#: spans of the traced pass land here, inside the checkout
OUT_DIR = ROOT / "e2e_bench_out"
#: sentinel spread above which the run is called disturbed
DISTURBED_SPREAD = 0.15


class SliceError(RuntimeError):
    """A worker process died or printed no result."""


def run_slice(
    workload: Workload,
    seed: int,
    seconds: float | None,
    cycles: int | None = None,
    trace: bool = False,
) -> dict:
    """One slice of ``workload`` in a fresh ``python -m e2e_bench.worker``."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    spec = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "cycles": cycles,
        "trace": trace,
        "t_spawn": time.time(),
    }
    # a session of its own, so that on any way out of here the worker and
    # the rank processes it forked can be killed as one group
    proc = subprocess.Popen(
        [sys.executable, "-m", "e2e_bench.worker", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=_SLICE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SliceError(
            f"{workload.name}: no result within {_SLICE_TIMEOUT_S} s"
        ) from exc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: the whole group has ended
        proc.wait()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SliceError(
            f"{workload.name}: worker exited {proc.returncode}\n"
            + stderr[-2000:]
        )
    return json.loads(lines[-1])


# ------------------------------------------------------------------ #
# end-to-end metrics (plain pass)
# ------------------------------------------------------------------ #
def pooled(slices: list[dict]) -> dict:
    """Samples and counts of a workload's plain slices, pooled."""
    tallies = [s["tallies"]["plain"] for s in slices]
    return {
        "samples": {
            k: [x for t in tallies for x in t["samples"][k]] for k in KERNELS
        },
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "bound_misses": sum(t["bound_misses"] for t in tallies),
        "failures": [f for t in tallies for f in t["failures"]],
    }


def is_correct(
    workload: Workload, attempted: int, failed: int, bound_misses: int
) -> bool:
    """A run is wrong above 5 % failed ops, or on any verification miss
    off the MP plane: on real processes a miss is a failed op like any
    desync, in-process nothing but the program can have caused it."""
    return failed <= MAX_FAIL_FRAC * attempted and not (
        bound_misses and workload.plane != "mp"
    )


def end_to_end(
    workload: Workload, slices: list[dict], strict_tail: bool
) -> dict:
    """The end-to-end metrics of one workload from its plain slices.

    Every statistic is over every successful op of the run, pooled.
    ``strict_tail`` refuses p90 under 100 hz samples (value ``None``);
    the driver needs a number on every run, so its mode reports the p90
    of what there is and says so in ``notes``.
    """
    pool = pooled(slices)
    samples = pool["samples"]
    tallies = [s["tallies"]["plain"] for s in slices]
    clients = max(workload.clients, 1)
    notes = []
    try:
        p90 = tail_percentile(samples["hz"], 90)
    except TooFewSamples as exc:
        notes.append(str(exc))
        p90 = None
        if not strict_tail and samples["hz"]:
            p90 = float(np.percentile(samples["hz"], 90))
    turn_ms = np.mean([x for t in tallies for x in t["hz_period"]])
    wire = slices[0]["wire"]
    values = {
        "setup_s": median([s["setup_s"] for s in slices]),
        "hz_op_ms_p50": median(samples["hz"]),
        "hz_op_ms_p90": p90,
        "doc_op_ms_p50": median(samples["doc"]),
        "plain_op_ms_p50": median(samples["plain"]),
        # ops the closed loop completes per second = callers / mean turn
        "hz_goodput_MBps": clients * workload.input_bytes
        / (float(turn_ms) / 1e3) / 1e6,
        "hz_wire_ratio": wire["plain"] / wire["hz"],
        "peak_rss_MB": max(s["peak_rss_MB"] for s in slices),
        "ok_frac": 1.0 - pool["failed"] / pool["attempted"],
    }
    return {
        "end_to_end": values,
        "attempted": pool["attempted"],
        "failed": pool["failed"],
        "failures": pool["failures"][:5],
        "n_samples": {k: len(v) for k, v in samples.items()},
        "correct": is_correct(
            workload, pool["attempted"], pool["failed"], pool["bound_misses"]
        ),
        "notes": notes,
    }


# ------------------------------------------------------------------ #
# per-layer metrics (traced pass)
# ------------------------------------------------------------------ #
def sentinel_spread(slices: list[dict]) -> float:
    """(max - min) / median of every sentinel spin of the run."""
    spins = [x for s in slices for x in s["sentinel_ms"]]
    return (max(spins) - min(spins)) / median(spins)


def _mp_layer(t: dict) -> dict:
    out = {"runtime.mp.start_s": median(t["extra"]["start_s"])}
    for kernel in ("hz", "plain"):
        runs = t["tallies"]["plain"]["mp_runs"][kernel]
        if not runs:
            continue
        ms = 1e3
        out[f"runtime.mp.makespan_ms_p50.{kernel}"] = ms * median(
            [r["makespan_s"] for r in runs]
        )
        out[f"runtime.mp.compute_ms_p50.{kernel}"] = ms * median(
            [r["compute_s"] for r in runs]
        )
        out[f"runtime.mp.wait_ms_p50.{kernel}"] = ms * median(
            [r["makespan_s"] - r["compute_s"] for r in runs]
        )
        out[f"runtime.mp.dispatch_ms_p50.{kernel}"] = ms * median(
            [r["wall_s"] - r["makespan_s"] for r in runs]
        )
    hz_runs = t["tallies"]["plain"]["mp_runs"]["hz"]
    if hz_runs:
        out["runtime.mp.frames_per_op"] = median([r["frames"] for r in hz_runs])
        out["runtime.mp.rank_skew_frac"] = median(
            [(max(r["rank_s"]) - min(r["rank_s"])) / max(r["rank_s"])
             for r in hz_runs]
        )
    out["runtime.mp.retransmits"] = sum(
        r["retransmits"]
        for mode in t["tallies"].values()
        for runs in mode["mp_runs"].values()
        for r in runs
    )
    out["runtime.mp.desyncs"] = t["counters"]["desyncs"]
    out["runtime.mp.restarts"] = t["counters"]["restarts"]
    return out


def _service_layer(t: dict, hz_p50_ms: float) -> dict:
    plain = t["tallies"]["plain"]
    stats = t["extra"]["service_stats"]
    refused = stats["rejected_backpressure"] + stats["rejected_quota"]
    out = {
        "service.sessions_per_s": len(plain["samples"]["hz"]) / plain["hz_busy_s"],
        "service.rejected_frac": refused / (stats["submitted"] + refused),
    }
    if stats["batches"]:
        out["service.batch_mean"] = stats["sessions_batched"] / stats["batches"]
    exec_ms = t["probes"].get("service.exec_ms_p50")
    if exec_ms:
        out["service.latency_over_exec"] = hz_p50_ms / exec_ms
    return out


def _span_layer(t: dict) -> dict:
    """Per-op self times and call counts from the traced blocks' spans."""
    summary = t["span_summary"]
    ops = summary["ops"]
    # what the benchmark timed around the same ops, outside the wrappers:
    # time no span covers, or the wrappers' own cost, moves the share off 1
    traced_wall_s = sum(t["tallies"]["traced"]["samples"]["hz"]) / 1e3
    if not ops or not traced_wall_s:
        return {}
    by = summary["by_name"]

    def per_op(name: str, key: str, scale: float = 1.0):
        return by[name][key] * scale / ops if name in by else None

    out = {
        "compression.cpr_calls_per_op": per_op("cpr", "calls"),
        "compression.dpr_calls_per_op": per_op("dpr", "calls"),
        "compression.cpr_self_ms": per_op("cpr", "self_s", 1e3),
        "compression.dpr_self_ms": per_op("dpr", "self_s", 1e3),
        "homomorphic.hpr_calls_per_op": per_op("hpr", "calls"),
        "homomorphic.hpr_self_ms": per_op("hpr", "self_s", 1e3),
        "schedule.executor_self_ms": per_op("schedule.run", "self_s", 1e3),
        "core.plan_self_ms": per_op("core.plan", "self_s", 1e3),
        "core.execute_self_ms": per_op("core.execute", "self_s", 1e3),
        "core.facade_self_ms": per_op("facade.allreduce", "self_s", 1e3),
        "service.submit_self_ms": per_op("service.submit", "self_s", 1e3),
        "kernels.arena_allocs_per_op": per_op("core.execute", "arena_allocs"),
        "core.layers_sum_frac": summary["self_sum_s"] / traced_wall_s,
    }
    return {k: v for k, v in out.items() if v is not None}


def per_layer(workload: Workload, t: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric of one traced slice -> ({name: value}, notes).

    A metric whose layer does not run on the workload, or whose probe or
    wrapper target is gone, reads ``NOT_APPLICABLE``.
    """
    notes = list(t["trace_notes"]) + list(t["probes"]["notes"])
    found = {k: v for k, v in t["probes"].items() if k != "notes"}
    plain = t["tallies"]["plain"]
    hz_p50 = median(plain["samples"]["hz"])
    found["core.first_op_ms"] = t["first_op_ms"]
    found["obs.sentinel_spread"] = sentinel_spread([t])
    # each traced block against the untraced block just before it, so a
    # slow second on the box does not read as tracing overhead
    blocks = t["block_hz_p50"]
    ratios = [
        on / off
        for off, on in zip(blocks[::2], blocks[1::2])
        if on and off  # None: every hz op of the block failed
    ]
    if ratios:
        found["obs.bench_trace_overhead_frac"] = median(ratios) - 1.0
    lookups = t["plan_cache"]["hits"] + t["plan_cache"]["misses"]
    if lookups:
        found["core.plan_cache_hit_frac"] = t["plan_cache"]["hits"] / lookups

    if workload.plane != "mp":  # mp ranks run in processes no span reaches
        found.update(_span_layer(t))
        floors = [
            ("compression.cpr_floor_us", "compression.cpr_calls_per_op"),
            ("compression.dpr_floor_us", "compression.dpr_calls_per_op"),
            ("homomorphic.hpr_floor_us", "homomorphic.hpr_calls_per_op"),
        ]
        if all(f in found and c in found for f, c in floors):
            found["core.floor_share"] = sum(
                found[f] * found[c] for f, c in floors
            ) / (hz_p50 * 1e3)
    if workload.plane == "sim":
        extra = t["extra"]
        counts = extra["pipeline_counts"]
        found["homomorphic.pipeline4_frac"] = counts[3] / sum(counts)
        found["runtime.sim.model_makespan_ms"] = extra["model_makespan_s"] * 1e3
        found["runtime.sim.model_hz_speedup"] = (
            extra["model_plain_makespan_s"] / extra["model_makespan_s"]
        )
        found["runtime.sim.wire_bytes_per_op"] = t["wire"]["hz"] / POOL_SETS
        if plain["hz_cpu_s"]:
            found["obs.wall_over_cpu"] = plain["hz_busy_s"] / plain["hz_cpu_s"]
    elif workload.plane == "mp":
        found.update(_mp_layer(t))
    else:
        found.update(_service_layer(t, hz_p50))
    return {m.name: found.get(m.name, NOT_APPLICABLE) for m in PER_LAYER}, notes


def write_spans(workload: Workload, seed: int, t: dict) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}.seed{seed}.spans.json"
    with open(path, "w") as fh:
        json.dump(
            {"workload": workload.name, "seed": seed, "spans": t["spans"]}, fh
        )
    return str(path.relative_to(ROOT))


# ------------------------------------------------------------------ #
# passes
# ------------------------------------------------------------------ #
def plain_pass(
    workloads, seed: int, seconds: float, rounds: int,
    cycles: int | None, log,
) -> dict[str, list[dict]]:
    """``rounds`` interleaved rounds; each workload runs ``1/rounds`` of
    its budget per round, one fresh process at a time."""
    slices: dict[str, list[dict]] = {w.name: [] for w in workloads}
    for r in range(rounds):
        for w in workloads:
            log(f"round {r + 1}/{rounds}  {w.name}")
            slices[w.name].append(
                run_slice(w, seed, seconds / rounds, cycles)
            )
    return slices


def traced_pass(workloads, seed: int, seconds: float, cycles, log) -> dict:
    out = {}
    for w in workloads:
        log(f"traced  {w.name}")
        out[w.name] = run_slice(w, seed, seconds, cycles, trace=True)
    return out


def unit_of(name: str) -> str:
    metrics = (*END_TO_END, *PER_LAYER)
    return next(m.unit for m in metrics if m.name == name)
