"""Figure 12 — Allreduce scalability, 2 → 512 nodes, 646 MB RTM data.

Paper: hZCCL peaks at 2.12× (ST) / 6.77× (MT) over MPI; unlike
Reduce_scatter the decline past the peak is only slight because the
Allreduce output size does not shrink with the node count — still 1.88× /
5.58× at 512 nodes.
"""

from __future__ import annotations


from repro.bench.tables import format_table
from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime.network import OMNIPATH_100G
from repro.schedule import family_cost

TOTAL_BYTES = 646_000_000
NODES = (2, 4, 8, 16, 32, 64, 128, 256, 512)


def sweep():
    rows = []
    hz = {False: [], True: []}
    cc = {False: [], True: []}
    for n in NODES:
        for mt in (False, True):
            t_mpi = family_cost(
                "mpi_allreduce", TOTAL_BYTES, PAPER_BROADWELL, OMNIPATH_100G,
                mt, n=n,
            ).total_time
            t_cc = family_cost(
                "ccoll_allreduce", TOTAL_BYTES, PAPER_BROADWELL, OMNIPATH_100G,
                mt, n=n,
            ).total_time
            t_hz = family_cost(
                "hzccl_allreduce", TOTAL_BYTES, PAPER_BROADWELL, OMNIPATH_100G,
                mt, n=n,
            ).total_time
            hz[mt].append(t_mpi / t_hz)
            cc[mt].append(t_mpi / t_cc)
            rows.append([n, "MT" if mt else "ST", t_mpi, t_cc, t_hz, t_mpi / t_cc, t_mpi / t_hz])
    return rows, hz, cc


def test_fig12_scalability():
    rows, hz, cc = sweep()
    print()
    print(
        format_table(
            ["nodes", "mode", "MPI s", "C-Coll s", "hZCCL s",
             "C-Coll speedup", "hZCCL speedup"],
            rows,
            title="Figure 12 (modelled, paper rates): Allreduce vs node "
            "count, 646 MB (paper: peak 2.12x ST / 6.77x MT, 512-node "
            "1.88x / 5.58x)",
        )
    )
    for mt in (False, True):
        series = hz[mt]
        peak = max(series)
        # grows from small N, wins beyond 4 nodes, holds at 512
        assert series[0] < peak
        for i, n in enumerate(NODES):
            if n >= 8:
                assert series[i] > 1.0, n
                assert series[i] > cc[mt][i], n
        assert series[-1] > 1.0
        # Allreduce's decline past the peak is limited (paper: 18% off
        # peak; our model lands near 25%), and strictly smaller than
        # Reduce_scatter's — the cross-figure contrast is asserted below.
        assert series[-1] > 0.7 * peak
    assert 1.3 < max(hz[False]) < 3.0
    assert 3.5 < max(hz[True]) < 9.0


def test_fig12_ar_declines_less_than_rs():
    """The paper's explicit cross-figure claim: Reduce_scatter loses more
    of its peak speedup at 512 nodes than Allreduce does."""
    def drop(op):
        speedups = []
        for n in NODES:
            mpi, ker = (
                family_cost(
                    f"{kernel}_{op}", TOTAL_BYTES, PAPER_BROADWELL,
                    OMNIPATH_100G, True, n=n,
                ).total_time
                for kernel in ("mpi", "hzccl")
            )
            speedups.append(mpi / ker)
        return (max(speedups) - speedups[-1]) / max(speedups)

    rs_drop = drop("reduce_scatter")
    ar_drop = drop("allreduce")
    assert ar_drop < rs_drop


if __name__ == "__main__":  # pragma: no cover
    print(sweep()[0])
