"""Aggregation-service throughput gate: batched vs per-request serving.

``k`` tenants need same-shaped 64 KB rooted SUM reductions.  Four ways
to serve them, measured end to end:

* **per-request** — the status quo: each tenant calls the facade's
  default ``HZCCL.reduce`` itself, one ring Reduce_scatter + compressed
  gather per session (no service involved);
* **service, unbatched** — every session through the
  :class:`~repro.service.AggregationService` with coalescing disabled
  (``max_batch=1``): each runs alone on the fused direct-reduce plan,
  so this row isolates what the *plan* buys without batching;
* **service, batched** — all sessions submitted concurrently, so they
  share one batch: one ``batched-reduce`` plan, one compression pass
  per rank covering the whole batch, ``k`` fused k-way folds at the
  root;
* **service, lone** — coalescing on (``max_batch=k``, a 10 ms window)
  but one session at a time, as a lone client submits: the service is
  work-conserving, so a session with no batch in flight runs at once
  and this row should cost what the unbatched one does.

Because the fused fold is exact in the integer domain, batching changes
no output byte — the comparison is pure amortisation.  The rows take
turns: every round runs each row once, the order rotated by one row per
round, so a slow minute of the box lands on every row alike instead of
on whichever ran then.  Each row reports its median over the rounds, and
the gate reads the median of the per-round ratios.  It requires the
batched service to clear **``--min-speedup`` (default 2×) the
per-request baseline's per-session throughput** at the 64 KB payload
point, and the lone row to stay within :data:`LONE_OVER_UNBATCHED_LIMIT`
of the unbatched one (a lone session that sat out the window would cost
~10 ms more each); the report includes the
:data:`~repro.core.pipeline.PLAN_CACHE` hit rate the serving loop
achieved.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # table
    PYTHONPATH=src python benchmarks/bench_service.py --check    # CI gate
    PYTHONPATH=src python benchmarks/bench_service.py -o BENCH_service.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import numpy as np

from repro import HZCCL
from repro.core.pipeline import PLAN_CACHE
from repro.service import AggregationService

N_RANKS = 4
ELEMENTS = 16_384  # 64 KB of float32 — the gate's payload point
SESSIONS = 8
#: rounds, each running every row once
REPEATS = 9
SEED = 20260808
#: ``--check`` bound on the lone row's time over the unbatched row's
LONE_OVER_UNBATCHED_LIMIT = 1.5


def _make_batch(k: int, n_ranks: int, elements: int):
    rng = np.random.default_rng(SEED)
    return [
        [
            np.cumsum(rng.normal(0, 0.02, elements)).astype(np.float32)
            for _ in range(n_ranks)
        ]
        for _ in range(k)
    ]


def _facade_once(batch) -> tuple[float, int]:
    """Per-request baseline: each session is one plain facade call."""
    lib = HZCCL()
    t0 = time.perf_counter()
    wire = sum(lib.reduce(s).bytes_on_wire for s in batch)
    return time.perf_counter() - t0, wire


def _serve_once(
    batch, *, coalesce: bool, concurrent: bool
) -> tuple[float, int]:
    """Serve the whole batch through the service once.

    ``coalesce`` sets ``max_batch`` to the batch size (else ``1``, no
    coalescing); ``concurrent`` submits every session at once, else one
    session at a time, each awaited before the next.
    """

    async def go():
        svc = AggregationService(
            window_s=0.01,
            max_batch=len(batch) if coalesce else 1,
            max_pending=2 * len(batch),
        )
        async with svc:
            t0 = time.perf_counter()
            if concurrent:
                await asyncio.gather(*(svc.submit(s) for s in batch))
            else:
                for s in batch:
                    await svc.submit(s)
            elapsed = time.perf_counter() - t0
        return elapsed, svc.stats()["wire_bytes"]

    return asyncio.run(go())


def _rows(batch) -> dict:
    """The four ways to serve ``batch``, each one ``(seconds, wire)`` call."""
    return {
        "per_request": lambda: _facade_once(batch),
        "service_unbatched": lambda: _serve_once(
            batch, coalesce=False, concurrent=False
        ),
        "batched": lambda: _serve_once(batch, coalesce=True, concurrent=True),
        "service_lone": lambda: _serve_once(
            batch, coalesce=True, concurrent=False
        ),
    }


def _take_turns(rows: dict, rounds: int) -> dict[str, list]:
    """Every row's results over ``rounds`` rounds: each round runs every
    row once, starting one row further along than the round before."""
    names = list(rows)
    results: dict[str, list] = {name: [] for name in names}
    for turn in range(rounds):
        shift = turn % len(names)
        for name in names[shift:] + names[:shift]:
            results[name].append(rows[name]())
    return results


def measure(repeats: int = REPEATS) -> dict:
    batch = _make_batch(SESSIONS, N_RANKS, ELEMENTS)
    _facade_once(batch)  # warm kernels + plan cache
    _serve_once(batch, coalesce=False, concurrent=False)
    PLAN_CACHE.clear()
    results = _take_turns(_rows(batch), repeats)
    secs = {row: np.array([r[0] for r in runs]) for row, runs in results.items()}
    wire = {row: runs[-1][1] for row, runs in results.items()}

    def ratio(num: str, den: str) -> float:
        """The median over rounds of one round's ``num / den``."""
        return float(np.median(secs[num] / secs[den]))

    per_request_s, unbatched_s, batched_s, lone_s = (
        float(np.median(secs[row]))
        for row in ("per_request", "service_unbatched", "batched", "service_lone")
    )
    return {
        "ranks": N_RANKS,
        "elements": ELEMENTS,
        "payload_bytes": ELEMENTS * 4,
        "sessions": SESSIONS,
        "rounds": repeats,
        "per_request_s": per_request_s,
        "service_unbatched_s": unbatched_s,
        "batched_s": batched_s,
        "service_lone_s": lone_s,
        "lone_over_unbatched": ratio("service_lone", "service_unbatched"),
        "speedup": ratio("per_request", "batched"),
        "speedup_vs_unbatched": ratio("service_unbatched", "batched"),
        "per_request_sessions_per_s": SESSIONS / per_request_s,
        "service_unbatched_sessions_per_s": SESSIONS / unbatched_s,
        "batched_sessions_per_s": SESSIONS / batched_s,
        "service_lone_sessions_per_s": SESSIONS / lone_s,
        "per_request_wire_bytes": wire["per_request"],
        "service_unbatched_wire_bytes": wire["service_unbatched"],
        "batched_wire_bytes": wire["batched"],
        "service_lone_wire_bytes": wire["service_lone"],
        "plan_cache": PLAN_CACHE.stats(),
    }


def report(doc: dict) -> str:
    def row(label, secs, per_s):
        return (
            f"  {label:<18}: {secs * 1e3:8.2f} ms "
            f"({per_s:6.1f} sessions/s)"
        )

    return "\n".join(
        [
            f"aggregation service @ {doc['payload_bytes'] >> 10} KB x "
            f"{doc['sessions']} sessions ({doc['ranks']} ranks), medians "
            f"of {doc['rounds']} rounds",
            row("per-request", doc["per_request_s"],
                doc["per_request_sessions_per_s"]),
            row("service, unbatched", doc["service_unbatched_s"],
                doc["service_unbatched_sessions_per_s"]),
            row("service, batched", doc["batched_s"],
                doc["batched_sessions_per_s"]),
            row("service, lone", doc["service_lone_s"],
                doc["service_lone_sessions_per_s"]),
            "  per-round ratios, median:",
            f"  speedup           : {doc['speedup']:.2f}x vs per-request, "
            f"{doc['speedup_vs_unbatched']:.2f}x vs unbatched service",
            f"  lone / unbatched  : {doc['lone_over_unbatched']:.2f}x "
            f"(limit {LONE_OVER_UNBATCHED_LIMIT:.2f}x)",
            f"  plan cache        : {doc['plan_cache']['hits']} hits / "
            f"{doc['plan_cache']['misses']} misses "
            f"(hit rate {doc['plan_cache']['hit_rate']:.0%})",
        ]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="gate: batched must clear --min-speedup, and "
                        "lone stay within LONE_OVER_UNBATCHED_LIMIT")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="rounds; each runs every row once")
    parser.add_argument("-o", "--output", default=None,
                        help="write the measurement as JSON")
    args = parser.parse_args(argv)

    doc = measure(repeats=args.repeats)
    print(report(doc))
    if args.output:
        with open(args.output, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}")
    if not args.check:
        return 0
    if doc["speedup"] < args.min_speedup:
        print(
            f"\nSERVICE GATE FAILED: batched speedup {doc['speedup']:.2f}x "
            f"< required {args.min_speedup:.2f}x"
        )
        return 1
    if doc["lone_over_unbatched"] > LONE_OVER_UNBATCHED_LIMIT:
        print(
            f"\nSERVICE GATE FAILED: lone sessions take "
            f"{doc['lone_over_unbatched']:.2f}x the unbatched service "
            f"(limit {LONE_OVER_UNBATCHED_LIMIT:.2f}x)"
        )
        return 1
    print(
        f"\nservice gate ok (>= {args.min_speedup:.2f}x; lone "
        f"<= {LONE_OVER_UNBATCHED_LIMIT:.2f}x unbatched)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
