"""Per-round trace analysis of a compressed collective.

Attaches a :class:`~repro.runtime.trace.TraceLog` to the simulated cluster
and dissects a hZCCL Reduce_scatter round by round: is each round compute-
or communication-bound, and how do message sizes drift as partial sums
accumulate (summed fields are rougher, so they compress slightly worse —
visible as growing per-round byte counts)?

Run:  python examples/round_trace_analysis.py
"""

import numpy as np

from repro.collectives import FAMILIES, run
from repro.compression import resolve_error_bound
from repro.core import calibrated_config
from repro.datasets import snapshot_series
from repro.runtime import SimCluster, TraceLog


def main() -> None:
    n_ranks = 8
    snapshots = [
        s.ravel() for s in snapshot_series("sim1", n_ranks, scale=0.01, seed=3)
    ]
    eb = resolve_error_bound(snapshots[0], rel_eb=1e-4)
    config = calibrated_config(snapshots[0], error_bound=eb)

    cluster = SimCluster(n_ranks, network=config.network, trace=TraceLog())
    res = run(FAMILIES["hzccl_reduce_scatter"], cluster, snapshots, config)
    print(f"hZCCL Reduce_scatter over {n_ranks} ranks: "
          f"{res.total_time * 1e3:.2f} ms simulated, "
          f"{cluster.trace.n_rounds} rounds\n")

    print(f"{'round':>5} | {'duration ms':>11} | {'compute ms':>10} | "
          f"{'comm ms':>8} | {'KB moved':>8} | bound by")
    for s in cluster.trace.round_summaries():
        print(
            f"{s.round_index:5d} | {s.duration * 1e3:11.3f} | "
            f"{s.max_compute * 1e3:10.3f} | {s.comm_time * 1e3:8.3f} | "
            f"{s.bytes_moved / 1e3:8.1f} | "
            f"{'compute' if s.compute_bound else 'network'}"
        )

    moved = cluster.trace.bytes_per_round()
    ring_rounds = [b for b in moved if b > 0][1:-1]  # exchange rounds only
    if len(ring_rounds) >= 2:
        drift = ring_rounds[-1] / ring_rounds[0]
        print(f"\nmessage-size drift across the ring: {drift:.2f}x "
              "(partial sums are rougher, so they compress a bit worse)")

    # export for external timeline tools
    path = "/tmp/hzccl_trace.json"
    cluster.trace.to_json(path)
    print(f"full trace written to {path} "
          f"({len(cluster.trace.events)} events)")


if __name__ == "__main__":
    main()
