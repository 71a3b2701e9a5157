"""Quickstart: compress, reduce homomorphically, run a collective.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import FZLight, HZCCL, HZDynamic
from repro.core import calibrated_config


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------ #
    # 1. Error-bounded lossy compression with fZ-light
    # ------------------------------------------------------------------ #
    data = np.cumsum(rng.normal(0, 0.01, 1_000_000)).astype(np.float32)
    comp = FZLight()
    field = comp.compress(data, rel_eb=1e-3)
    restored = comp.decompress(field)
    print(f"compression ratio : {field.compression_ratio:8.2f}")
    print(f"max abs error     : {np.abs(restored - data).max():.3e} "
          f"(bound {field.error_bound:.3e})")

    # ------------------------------------------------------------------ #
    # 2. Homomorphic reduction — sum two arrays WITHOUT decompressing
    # ------------------------------------------------------------------ #
    other = np.cumsum(rng.normal(0, 0.01, 1_000_000)).astype(np.float32)
    cx = comp.compress(data, abs_eb=field.error_bound)
    cy = comp.compress(other, abs_eb=field.error_bound)
    engine = HZDynamic()
    csum = engine.add(cx, cy)  # operates directly on compressed bytes
    total = comp.decompress(csum)
    exact = data.astype(np.float64) + other.astype(np.float64)
    print(f"homomorphic sum   : max err {np.abs(total - exact).max():.3e} "
          f"(≤ 2·eb = {2 * field.error_bound:.3e})")
    print(f"pipeline mix      : {engine.stats}")

    # ------------------------------------------------------------------ #
    # 3. A compressed collective across simulated ranks
    # ------------------------------------------------------------------ #
    # Scientific-field-like rank data: a shared smooth background plus a
    # compact per-rank active region (most blocks quantise to constants —
    # the regime homomorphic compression was built for).
    n = 1_500_000
    t = np.linspace(0, 40, n)
    rank_data = []
    for r in range(8):
        field = (5.0 * np.sin(t) * np.exp(-t / 30)).astype(np.float32)
        # every member is active in the same storm region (ensemble-style)
        field[700_000:780_000] += rng.normal(0, 0.5, 80_000).astype(np.float32)
        rank_data.append(field)
    # calibrate the simulated link to this machine's kernel speed so the
    # simulated times are meaningful (DESIGN.md §1)
    lib = HZCCL(calibrated_config(rank_data[0], error_bound=1e-3))
    hz = lib.allreduce(rank_data)                  # hZCCL (homomorphic)
    mpi = lib.allreduce(rank_data, kernel="mpi")   # uncompressed baseline
    err = np.abs(hz.outputs[0] - mpi.outputs[0]).max()
    print(f"hZCCL allreduce   : {hz.bytes_on_wire / 1e6:6.2f} MB on the wire, "
          f"max deviation from exact {err:.2e}")
    print(f"MPI   allreduce   : {mpi.bytes_on_wire / 1e6:6.2f} MB on the wire")
    print(f"wire-volume saving: {mpi.bytes_on_wire / hz.bytes_on_wire:.1f}x")

    # ------------------------------------------------------------------ #
    # 4. What that buys at the paper's scale (§III-C cost model)
    # ------------------------------------------------------------------ #
    from repro.core import PAPER_BROADWELL
    from repro.runtime import OMNIPATH_100G
    from repro.schedule import family_cost

    total = 646_000_000  # the paper's full RTM message
    for n_nodes in (64, 512):
        t_mpi = family_cost(
            "mpi_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, True,
            n=n_nodes,
        ).total_time
        t_hz = family_cost(
            "hzccl_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, True,
            n=n_nodes,
        ).total_time
        print(f"modelled {n_nodes:3d}-node Allreduce (646 MB, MT): "
              f"hZCCL {t_mpi / t_hz:.2f}x faster than MPI")


if __name__ == "__main__":
    main()
