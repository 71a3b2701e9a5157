"""Span-tree characterisation of every collective family (helper module).

``characterise()`` runs each case at n = 4, healthy and with every
compressed stream forced unrecoverable, and records the trace's span tree
as ``[kind, name]`` pairs in walk order plus the degraded flag.
``tests/collectives/family_spans.json`` holds the result as generated at
the commit *before* the family table existed, through that commit's
per-family entry points (a case is named after the entry point and, in
brackets, the flag it was called with)::

    PYTHONPATH=<that commit>/src python -m tests.collectives.span_pins \
        > tests/collectives/family_spans.json

Each case now runs its family-table row through ``run()``; the pin is
never regenerated, so a row that drifts from the old span tree fails.
"""

from __future__ import annotations

import json

import numpy as np

from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime import FaultPlan, SimCluster
from repro.runtime.nodemap import NodeMap
from repro.runtime.trace import TraceLog

N = 4
CONFIG = CollectiveConfig(error_bound=1e-3)
NODEMAP = NodeMap.regular(N, 2)
#: every compressed delivery fails validation on every attempt
FORCED = FaultPlan(seed=7, corrupt_rate=1.0)


def fields(n: int = N, elements: int = 1500) -> list[np.ndarray]:
    rng = np.random.default_rng(5)
    return [
        np.cumsum(rng.normal(0, 0.02, elements)).astype(np.float32)
        for _ in range(n)
    ]


def _compressed_chunks(data):
    # a healthy reduce-scatter on a side cluster, so the cluster under
    # test traces only the compressed allgather
    side = SimCluster(len(data))
    return run(FAMILIES["hzccl_reduce_scatter_fused"], side, data, CONFIG).outputs


CASES = {
    "mpi_reduce_scatter": lambda cl, d: run(FAMILIES["mpi_reduce_scatter"], cl, d),
    "mpi_allgather": lambda cl, d: run(
        FAMILIES["mpi_allgather"], cl, [a[:300] for a in d],
    ),
    "mpi_allreduce": lambda cl, d: run(FAMILIES["mpi_allreduce"], cl, d),
    "ccoll_reduce_scatter": lambda cl, d: run(
        FAMILIES["ccoll_reduce_scatter"], cl, d, CONFIG,
    ),
    "ccoll_allgather": lambda cl, d: run(
        FAMILIES["ccoll_allgather"], cl, [a[:300] for a in d], CONFIG,
    ),
    "ccoll_allreduce": lambda cl, d: run(FAMILIES["ccoll_allreduce"], cl, d, CONFIG),
    "hzccl_reduce_scatter": lambda cl, d: run(
        FAMILIES["hzccl_reduce_scatter"], cl, d, CONFIG,
    ),
    "hzccl_reduce_scatter[return_compressed]": lambda cl, d: (
        run(FAMILIES["hzccl_reduce_scatter_fused"], cl, d, CONFIG)
    ),
    "hzccl_allgather_compressed": lambda cl, d: run(
        FAMILIES["hzccl_allgather_compressed"], cl, _compressed_chunks(d),
        CONFIG,
    ),
    "hzccl_allreduce": lambda cl, d: run(FAMILIES["hzccl_allreduce"], cl, d, CONFIG),
    "hzccl_pipelined_allreduce": lambda cl, d: run(
        FAMILIES["hzccl_pipelined_allreduce"], cl, d, CONFIG, chunks=2,
    ),
    "mpi_reduce": lambda cl, d: run(FAMILIES["mpi_reduce"], cl, d, root=1),
    "hzccl_reduce": lambda cl, d: run(FAMILIES["hzccl_reduce"], cl, d, CONFIG, root=1),
    "hzccl_reduce_direct": lambda cl, d: run(
        FAMILIES["hzccl_reduce_direct"], cl, d, CONFIG, root=1,
    ),
    "mpi_bcast": lambda cl, d: run(FAMILIES["mpi_bcast"], cl, d[0], root=1),
    "compressed_bcast": lambda cl, d: run(
        FAMILIES["compressed_bcast"], cl, d[0], CONFIG, root=1,
    ),
    "hzccl_batched_reduce": lambda cl, d: run(
        FAMILIES["hzccl_batched_reduce"], cl, [d, [a * 2 for a in d]], CONFIG,
    ),
    "rabenseifner_allreduce": lambda cl, d: run(FAMILIES["rabenseifner_allreduce"], cl, d),
    "hzccl_rabenseifner_allreduce": lambda cl, d: (
        run(FAMILIES["hzccl_rabenseifner_allreduce"], cl, d, CONFIG)
    ),
    "mpi_hierarchical_allreduce": lambda cl, d: run(
        FAMILIES["mpi_hierarchical_allreduce"], cl, d, nodemap=NODEMAP,
    ),
    "hzccl_hierarchical_allreduce": lambda cl, d: (
        run(
            FAMILIES["hzccl_hierarchical_allreduce"], cl, d, CONFIG,
            nodemap=NODEMAP, inter="rabenseifner",
        )
    ),
}


def characterise() -> dict:
    doc = {}
    data = fields()
    for name, call in CASES.items():
        doc[name] = {}
        for label, faults in (("healthy", None), ("forced", FORCED)):
            cluster = SimCluster(N, trace=TraceLog(), faults=faults)
            result = call(cluster, data)
            doc[name][label] = {
                "degraded": result.degraded,
                "spans": [
                    [e.bucket, e.label]
                    for e in cluster.trace.events
                    if e.kind == "begin"
                ],
            }
    return doc


if __name__ == "__main__":
    print(json.dumps(characterise(), indent=1, sort_keys=True))
