"""Figure 2 — performance breakdown of C-Coll-accelerated ring Allreduce.

Paper setup: 16 Broadwell nodes; DPR+CPT+CPR dominates C-Coll's runtime at
78.18 % (single-thread) and 52.26 % (multi-thread), with MPI at 21.56 % /
47.02 %.

Here: a *functional* run on 16 simulated ranks with seismic snapshot data.
Compute times are measured around the real kernels; the link is scaled to
this machine's substrate (see ``matched_network``).  Expected shape: the
DOC share dominates in ST mode and drops substantially in MT mode while
the MPI share rises.
"""

from __future__ import annotations

import numpy as np

from repro.bench.tables import format_table
from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.core.cost_model import matched_network
from repro.runtime.cluster import SimCluster
from repro.runtime.network import OMNIPATH_100G

from conftest import cached_field, measured_rates

N_RANKS = 16


def _local_data() -> list[np.ndarray]:
    base = cached_field("sim1", 0)
    n = min(base.size, 400_000)
    rng = np.random.default_rng(1)
    return [
        (base[:n] * (1.0 + 0.01 * r) + rng.normal(0, 1e-4, n).astype(np.float32))
        for r in range(N_RANKS)
    ]


def _run(multithread: bool) -> dict[str, float]:
    from repro.compression import resolve_error_bound

    network = matched_network(OMNIPATH_100G, measured_rates())
    eb = resolve_error_bound(_local_data()[0], rel_eb=1e-4)
    config = CollectiveConfig(
        error_bound=eb, network=network, multithread=multithread
    )
    cluster = SimCluster(
        N_RANKS, network=network, multithread=multithread,
        thread_speedup=config.thread_speedup,
    )
    res = run(FAMILIES["ccoll_allreduce"], cluster, _local_data(), config)
    pct = res.breakdown.percentages()
    doc = pct["CPR"] + pct["DPR"] + pct["CPT"] + pct["HPR"]
    return {"DPR+CPT+CPR": doc, "MPI": pct["MPI"], "OTHER": pct["OTHER"]}


def test_fig02_breakdown(benchmark):
    st = _run(multithread=False)
    mt = benchmark.pedantic(lambda: _run(multithread=True), rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["mode", "DPR+CPT+CPR %", "MPI %", "OTHER %"],
            [
                ["C-Coll (ST)", st["DPR+CPT+CPR"], st["MPI"], st["OTHER"]],
                ["C-Coll (MT)", mt["DPR+CPT+CPR"], mt["MPI"], mt["OTHER"]],
            ],
            title="Figure 2: C-Coll ring Allreduce breakdown, 16 ranks "
            "(paper: ST 78.18/21.56, MT 52.26/47.02)",
        )
    )
    # Shape assertions from the paper
    assert st["DPR+CPT+CPR"] > st["MPI"], "ST mode must be DOC-dominated"
    assert mt["DPR+CPT+CPR"] < st["DPR+CPT+CPR"], "MT shrinks the DOC share"
    assert mt["MPI"] > st["MPI"], "MT raises the MPI share"


if __name__ == "__main__":  # pragma: no cover
    st, mt = _run(False), _run(True)
    print(st, mt)
