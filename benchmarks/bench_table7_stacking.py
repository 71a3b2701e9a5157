"""Table VII — image stacking performance analysis.

Paper: with abs eb 1e-4 (on O(1)-range imagery), hZCCL's Allreduce stacks
images 1.81× (ST) / 5.02× (MT) faster than MPI, beating C-Coll (1.45× /
3.34×); hZCCL cuts the CPR+CPT share of the runtime vs C-Coll in both
modes (ST 81.95 → 77.96 %, MT 59.04 → 38.61 %).

Here: functional stacking on simulated ranks for the breakdown columns
(structure) plus the §III-C model for the speedup columns at the paper's
scale.
"""

from __future__ import annotations


from repro.apps.image_stacking import make_exposures, stack_images
from repro.bench.tables import format_table
from repro.compression import resolve_error_bound
from repro.core.config import CollectiveConfig
from repro.core.cost_model import PAPER_BROADWELL, matched_network
from repro.runtime.network import OMNIPATH_100G
from repro.schedule import family_cost

from conftest import measured_rates

N_RANKS = 8
SHAPE = (512, 512)


def functional_breakdowns():
    scene, exposures = make_exposures(N_RANKS, shape=SHAPE, seed=42)
    eb = resolve_error_bound(exposures[0], rel_eb=1e-4)
    network = matched_network(OMNIPATH_100G, measured_rates())
    rows, results = [], {}
    for mt in (False, True):
        config = CollectiveConfig(error_bound=eb, network=network, multithread=mt)
        ref = stack_images(exposures, "mpi", config)
        for method in ("hzccl", "ccoll"):
            res = stack_images(exposures, method, config, reference=ref.stacked)
            pct = res.breakdown.percentages()
            doc = pct["CPR"] + pct["CPT"] + pct["HPR"] + pct["DPR"]
            results[(method, mt)] = (res, doc)
            rows.append(
                [f"{method} ({'MT' if mt else 'ST'})", doc, pct["MPI"],
                 pct["OTHER"], res.psnr, res.nrmse]
            )
    return rows, results


def test_table7_breakdowns(benchmark):
    rows, results = benchmark.pedantic(functional_breakdowns, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["kernel", "CPR+CPT %", "MPI %", "Others %", "PSNR dB", "NRMSE"],
            rows,
            title="Table VII (functional breakdown + accuracy): image "
            "stacking, 8 ranks (paper: hZCCL cuts the CPR+CPT share)",
        )
    )
    # multi-threading shifts time from compute to MPI for both kernels
    # (the Figure-2-style contrast); the hZCCL-vs-C-Coll share contrast is
    # carried by the model test below — noisy exposures are pipeline-4
    # dense, where this substrate's HPR:DPR balance deviates (EXPERIMENTS.md)
    for method in ("hzccl", "ccoll"):
        _, doc_st = results[(method, False)]
        _, doc_mt = results[(method, True)]
        assert doc_mt < doc_st, method
    # accuracy: paper reports PSNR 62 dB at eb 1e-4 — same order here
    for (method, mt), (res, _) in results.items():
        assert res.psnr > 55, (method, mt)
        assert res.nrmse < 5e-3, (method, mt)


def test_table7_speedups_modelled():
    """Speedup columns at the paper's scale via the cost model."""
    total = SHAPE[0] * SHAPE[1] * 4 * 64  # 64 exposures of this size
    rows, ratios = [], {}
    for mt in (False, True):
        mpi = family_cost("mpi_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=64).total_time
        cc = family_cost("ccoll_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=64).total_time
        hz = family_cost("hzccl_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=64).total_time
        ratios[mt] = (mpi / hz, mpi / cc)
        rows.append([f"hZCCL ({'MT' if mt else 'ST'})", mpi / hz])
        rows.append([f"C-Coll ({'MT' if mt else 'ST'})", mpi / cc])
    print()
    print(
        format_table(
            ["kernel", "speedup over MPI"],
            rows,
            title="Table VII (modelled speedups, 64 nodes; paper: hZCCL "
            "1.81/5.02, C-Coll 1.45/3.34)",
        )
    )
    for mt, (hz_speedup, cc_speedup) in ratios.items():
        assert hz_speedup > cc_speedup, mt
        assert hz_speedup > 1.0, mt


def test_table7_doc_share_contrast_modelled():
    """The paper's share contrast under its own rates: hZCCL spends a
    smaller fraction of its runtime in CPR+CPT than C-Coll (ST: 81.95 →
    77.96 %, MT: 59.04 → 38.61 %)."""
    total = SHAPE[0] * SHAPE[1] * 4 * 64
    for mt in (False, True):
        cc = family_cost("ccoll_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=64)
        hz = family_cost("hzccl_allreduce", total, PAPER_BROADWELL, OMNIPATH_100G, mt, n=64)
        assert hz.doc_time / hz.total_time < cc.doc_time / cc.total_time, mt


if __name__ == "__main__":  # pragma: no cover
    print(functional_breakdowns()[0])
