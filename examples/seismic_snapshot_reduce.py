"""Seismic snapshot accumulation with a root-based compressed Reduce.

The RTM workflow from the paper's motivation: imaging conditions sum
wavefield snapshots across shots, and the sum is only needed on the node
that writes the image.  That is a Reduce, not an Allreduce — and hZCCL's
root-based Reduce is maximally asymmetric: *only the root ever runs a
decompression*; every other node touches nothing but compressed bytes.

Run:  python examples/seismic_snapshot_reduce.py
"""

import numpy as np

from repro import HZCCL
from repro.compression import resolve_error_bound
from repro.core import calibrated_config
from repro.datasets import snapshot_series


def main() -> None:
    n_shots = 6
    snapshots = [s.ravel() for s in snapshot_series("sim1", n_shots, scale=0.02, seed=5)]
    print(f"{n_shots} RTM snapshots, {snapshots[0].size / 1e6:.2f}M cells each, "
          f"{np.mean([float((s == 0).mean()) for s in snapshots]) * 100:.0f}% quiet")

    eb = resolve_error_bound(snapshots[0], rel_eb=1e-4)
    lib = HZCCL(calibrated_config(snapshots[0], error_bound=eb))

    exact = np.sum(np.stack(snapshots).astype(np.float64), axis=0)
    for kernel in ("mpi", "hzccl"):
        res = lib.reduce(snapshots, root=0, kernel=kernel)
        err = float(np.abs(res.outputs[0].astype(np.float64) - exact).max())
        line = (
            f"{kernel:6}: wire {res.bytes_on_wire / 1e6:6.2f} MB | "
            f"root max err {err:.2e} (bound {n_shots * eb:.2e})"
        )
        if res.pipeline_stats is not None:
            line += f"\n        pipeline mix: {res.pipeline_stats}"
        print(line)

    # only rank 0 decompresses — show the ledger
    res = lib.reduce(snapshots, root=0)
    print("\nwho decompressed? (the co-design's asymmetry)")
    # re-run on an explicit cluster to inspect per-rank clocks
    from repro.collectives import FAMILIES, run
    from repro.runtime import SimCluster

    cluster = SimCluster(n_shots, network=lib.config.network)
    run(FAMILIES["hzccl_reduce"], cluster, snapshots, lib.config, root=0)
    for i, clock in enumerate(cluster.clocks):
        print(f"  rank {i}: DPR {clock.buckets['DPR'] * 1e3:6.2f} ms, "
              f"HPR {clock.buckets['HPR'] * 1e3:6.2f} ms")


if __name__ == "__main__":
    main()
