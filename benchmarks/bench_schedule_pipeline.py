"""Schedule-IR pipelining — modelled overlap of the chunked ring.

The pipelined ring reduce-scatter (``pipelined_ring_reduce_scatter``)
splits each block into chunks and folds chunk ``c-1`` while chunk ``c``
is on the wire; under the §III-C model an ``overlap`` round costs
``pack + max(wire, fold)`` instead of their sum.  This harness dry-runs
the *same schedule objects the executor runs* and asserts the payoff:
the pipelined hZCCL Allreduce makespan is strictly below the
unpipelined one at every grid point ≥ 4 MB (best chunk count; small
chunk counts win at small messages where per-invocation overhead and
latency dominate).

Deterministic (pure cost model, paper Broadwell rates, Omni-Path 100G),
so the committed ``BENCH_schedule.json`` is exactly reproducible:

    PYTHONPATH=src python benchmarks/bench_schedule_pipeline.py
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.tables import format_table
from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime.network import OMNIPATH_100G
from repro.schedule import family_cost

MB = 1 << 20
SIZES_MB = (4, 16, 64, 256)
NODE_COUNTS = (8, 64)
CHUNK_COUNTS = (2, 4)
BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_schedule.json"


def sweep() -> dict:
    points = []
    for n in NODE_COUNTS:
        for mb in SIZES_MB:
            for mt in (False, True):
                base = family_cost(
                    "hzccl_allreduce", mb * MB, PAPER_BROADWELL, OMNIPATH_100G,
                    mt, n=n,
                )
                piped = {
                    k: family_cost(
                        "hzccl_pipelined_allreduce", mb * MB, PAPER_BROADWELL,
                        OMNIPATH_100G, mt, n=n, chunks=k,
                    ).total_time
                    for k in CHUNK_COUNTS
                }
                best_k = min(piped, key=piped.get)
                points.append(
                    {
                        "n_nodes": n,
                        "size_mb": mb,
                        "mode": "MT" if mt else "ST",
                        "unpipelined_s": base.total_time,
                        "pipelined_s": {str(k): t for k, t in piped.items()},
                        "best_chunks": best_k,
                        "speedup": base.total_time / piped[best_k],
                    }
                )
    return {
        "rates": "PAPER_BROADWELL",
        "network": "OMNIPATH_100G",
        "points": points,
    }


def check(doc: dict) -> list[list]:
    rows = []
    for p in doc["points"]:
        best = min(p["pipelined_s"].values())
        assert best < p["unpipelined_s"], (
            f"no modelled overlap win at n={p['n_nodes']} "
            f"{p['size_mb']} MB {p['mode']}"
        )
        rows.append(
            [p["n_nodes"], p["size_mb"], p["mode"],
             1e3 * p["unpipelined_s"], 1e3 * best, p["best_chunks"],
             p["speedup"]]
        )
    return rows


def test_pipelined_allreduce_model_beats_unpipelined(benchmark):
    doc = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = check(doc)
    print()
    print(
        format_table(
            ["nodes", "MB", "mode", "unpipelined ms", "pipelined ms",
             "chunks", "speedup"],
            rows,
            title="Pipelined vs unpipelined hZCCL Allreduce (modelled)",
        )
    )


def test_matches_committed_baseline():
    """The committed JSON is a pure-model artefact: must match exactly."""
    committed = json.loads(BASELINE.read_text())
    assert committed == sweep()


if __name__ == "__main__":  # pragma: no cover
    doc = sweep()
    check(doc)
    BASELINE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE} ({len(doc['points'])} grid points, all "
          "pipelined makespans strictly below unpipelined)")
