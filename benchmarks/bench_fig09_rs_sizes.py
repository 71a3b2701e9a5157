"""Figure 9 — Reduce_scatter vs MPI and C-Coll across message sizes.

Paper: 64 Broadwell nodes, data sizes up to ~600 MB; hZCCL reaches up to
1.58× (ST) and 4.04× (MT) over plain MPI, and the advantage *grows with
message size* (larger messages congest the network more, so the volume
reduction pays more).

Here: the §III-C model swept over sizes under paper-derived rates (strict
shape assertions) and this machine's measured rates (reported).
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
            mpi = family_cost("mpi_reduce_scatter", total, rates, network, mt, n=N_NODES).total_time
            cc = family_cost("ccoll_reduce_scatter", total, rates, network, mt, n=N_NODES).total_time
            hz = family_cost("hzccl_reduce_scatter", total, rates, network, mt, n=N_NODES).total_time
            series[("cc", mt)].append(mpi / cc)
            series[("hz", mt)].append(mpi / hz)
            rows.append(
                [mb, "MT" if mt else "ST", mpi, cc, hz, mpi / cc, mpi / hz]
            )
    return rows, series


def test_fig09_paper_rates():
    rows, series = sweep(PAPER_BROADWELL, OMNIPATH_100G)
    print()
    print(
        format_table(
            ["MB", "mode", "MPI s", "C-Coll s", "hZCCL s",
             "C-Coll speedup", "hZCCL speedup"],
            rows,
            title=f"Figure 9 (modelled, paper rates, {N_NODES} nodes): "
            "Reduce_scatter vs message size (paper: up to 1.58x ST / 4.04x MT)",
        )
    )
    # Shape 1: hZCCL beats C-Coll beats MPI at every size, both modes
    # (ST C-Coll crosses 1.0 a little later — skip the overhead-dominated
    # small sizes for it).
    for (kernel, mt), speedups in series.items():
        start = 2 if (kernel, mt) == ("cc", False) else 1
        for s in speedups[start:]:
            assert s > 1.0, (kernel, mt)
    for i in range(len(SIZES_MB)):
        for mt in (False, True):
            assert series[("hz", mt)][i] > series[("cc", mt)][i]
    # Shape 2: the speedup grows with the message size.
    for key, speedups in series.items():
        assert speedups[-1] > speedups[0], key
        assert speedups == sorted(speedups), key
    # Shape 3: magnitudes in the paper's band (±40%).
    assert 1.0 < max(series[("hz", False)]) < 2.3
    assert 2.4 < max(series[("hz", True)]) < 5.7


def test_fig09_measured_rates():
    rates = measured_rates()
    rows, series = sweep(rates, matched_network(OMNIPATH_100G, rates))
    print()
    print(
        format_table(
            ["MB", "mode", "MPI s", "C-Coll s", "hZCCL s",
             "C-Coll speedup", "hZCCL speedup"],
            rows,
            title=f"Figure 9 (modelled, measured rates, {N_NODES} nodes)",
        )
    )
    # Under NumPy rates the MT compressed kernels must still beat MPI and
    # grow with size; ST is reported (HPR:DPR deviation, EXPERIMENTS.md).
    for kernel in ("cc", "hz"):
        mt_series = series[(kernel, True)]
        assert mt_series[-1] > 1.0, kernel
        assert mt_series[-1] >= mt_series[0], kernel


if __name__ == "__main__":  # pragma: no cover
    print(sweep(PAPER_BROADWELL, OMNIPATH_100G)[0])
