"""Figure 10 — Reduce_scatter scalability, 2 → 512 nodes, 646 MB RTM data.

Paper: speedup over MPI first *grows* with the node count (congestion
makes volume reduction more valuable), peaks at up to 1.9× (ST) / 5.85×
(MT), then *decreases and stabilises* toward 512 nodes (the scattered
output block shrinks, so per-operation compression overhead bites) —
still 1.46× / 4.12× at 512.

Here: the §III-C model with the paper-derived rates across the same node
axis; all three shape features are asserted.
"""

from __future__ import annotations


from repro.bench.tables import format_table
from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime.network import OMNIPATH_100G
from repro.schedule import family_cost

from conftest import measured_rates  # noqa: F401  (kept for interactive use)

TOTAL_BYTES = 646_000_000
NODES = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def sweep():
    rows = []
    hz_speedups = {False: [], True: []}
    cc_speedups = {False: [], True: []}
    for n in NODES:
        for mt in (False, True):
            mpi = family_cost(
                "mpi_reduce_scatter", TOTAL_BYTES, PAPER_BROADWELL,
                OMNIPATH_100G, mt, n=n,
            ).total_time
            cc = family_cost(
                "ccoll_reduce_scatter", TOTAL_BYTES, PAPER_BROADWELL,
                OMNIPATH_100G, mt, n=n,
            ).total_time
            hz = family_cost(
                "hzccl_reduce_scatter", TOTAL_BYTES, PAPER_BROADWELL,
                OMNIPATH_100G, mt, n=n,
            ).total_time
            hz_speedups[mt].append(mpi / hz)
            cc_speedups[mt].append(mpi / cc)
            rows.append([n, "MT" if mt else "ST", mpi, cc, hz, mpi / cc, mpi / hz])
    return rows, hz_speedups, cc_speedups


def test_fig10_scalability():
    rows, hz, cc = sweep()
    print()
    print(
        format_table(
            ["nodes", "mode", "MPI s", "C-Coll s", "hZCCL s",
             "C-Coll speedup", "hZCCL speedup"],
            rows,
            title="Figure 10 (modelled, paper rates): Reduce_scatter vs node "
            "count, 646 MB (paper: peak 1.9x ST / 5.85x MT, 512-node "
            "1.46x / 4.12x)",
        )
    )
    for mt in (False, True):
        series = hz[mt]
        peak = max(series)
        peak_at = series.index(peak)
        # Shape 1: grows to an interior peak…
        assert 0 < peak_at < len(NODES) - 1, "peak must be interior"
        assert series[peak_at] > series[0]
        # Shape 2: …then declines toward 512 nodes but stays a win.
        assert series[-1] < peak
        assert series[-1] > 1.0
        # Shape 3: hZCCL above C-Coll on the whole axis (beyond 2 nodes).
        for i in range(1, len(NODES)):
            assert hz[mt][i] > cc[mt][i], NODES[i]
    # Magnitudes within the paper band (±40%)
    assert 1.1 < max(hz[False]) < 2.7
    assert 2.8 < max(hz[True]) < 8.2


def test_fig10_congestion_drives_growth():
    """Ablation on the mechanism: with congestion disabled, the speedup no
    longer grows with the node count (it is flat-to-falling) — evidence
    that the growth in Fig. 10 comes from congestion relief."""
    from dataclasses import replace

    flat_net = replace(OMNIPATH_100G, congestion_per_log2=0.0)
    speedups = []
    for n in (8, 64, 512):
        mpi = family_cost("mpi_reduce_scatter", TOTAL_BYTES, PAPER_BROADWELL, flat_net, True, n=n).total_time
        hz = family_cost("hzccl_reduce_scatter", TOTAL_BYTES, PAPER_BROADWELL, flat_net, True, n=n).total_time
        speedups.append(mpi / hz)
    assert speedups[-1] <= speedups[0] * 1.05


if __name__ == "__main__":  # pragma: no cover
    print(sweep()[0])
