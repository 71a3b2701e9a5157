"""Span-tree characterisation of every collective family (helper module).

``characterise()`` runs each named entry point at n = 4, healthy and with
every compressed stream forced unrecoverable, and records the trace's
span tree as ``[kind, name]`` pairs in walk order plus the degraded flag.
``tests/collectives/family_spans.json`` holds the result as generated at
the commit *before* the family table existed::

    PYTHONPATH=<parent>/src python -m tests.collectives.span_pins \
        > tests/collectives/family_spans.json

so it only imports names that commit already had.
"""

from __future__ import annotations

import json

import numpy as np

from repro.collectives import (
    ccoll_allgather,
    ccoll_allreduce,
    ccoll_reduce_scatter,
    compressed_bcast,
    hzccl_allgather_compressed,
    hzccl_allreduce,
    hzccl_batched_reduce,
    hzccl_hierarchical_allreduce,
    hzccl_pipelined_allreduce,
    hzccl_rabenseifner_allreduce,
    hzccl_reduce,
    hzccl_reduce_direct,
    hzccl_reduce_scatter,
    mpi_allgather,
    mpi_allreduce,
    mpi_bcast,
    mpi_hierarchical_allreduce,
    mpi_reduce,
    mpi_reduce_scatter,
    rabenseifner_allreduce,
)
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
    return hzccl_reduce_scatter(
        side, data, CONFIG, return_compressed=True
    ).outputs


CASES = {
    "mpi_reduce_scatter": lambda cl, d: mpi_reduce_scatter(cl, d),
    "mpi_allgather": lambda cl, d: mpi_allgather(cl, [a[:300] for a in d]),
    "mpi_allreduce": lambda cl, d: mpi_allreduce(cl, d),
    "ccoll_reduce_scatter": lambda cl, d: ccoll_reduce_scatter(cl, d, CONFIG),
    "ccoll_allgather": lambda cl, d: ccoll_allgather(
        cl, [a[:300] for a in d], CONFIG
    ),
    "ccoll_allreduce": lambda cl, d: ccoll_allreduce(cl, d, CONFIG),
    "hzccl_reduce_scatter": lambda cl, d: hzccl_reduce_scatter(cl, d, CONFIG),
    "hzccl_reduce_scatter[return_compressed]": lambda cl, d: (
        hzccl_reduce_scatter(cl, d, CONFIG, return_compressed=True)
    ),
    "hzccl_allgather_compressed": lambda cl, d: hzccl_allgather_compressed(
        cl, _compressed_chunks(d), CONFIG
    ),
    "hzccl_allreduce": lambda cl, d: hzccl_allreduce(cl, d, CONFIG),
    "hzccl_pipelined_allreduce": lambda cl, d: hzccl_pipelined_allreduce(
        cl, d, CONFIG
    ),
    "mpi_reduce": lambda cl, d: mpi_reduce(cl, d, root=1),
    "hzccl_reduce": lambda cl, d: hzccl_reduce(cl, d, CONFIG, root=1),
    "hzccl_reduce_direct": lambda cl, d: hzccl_reduce_direct(
        cl, d, CONFIG, root=1
    ),
    "mpi_bcast": lambda cl, d: mpi_bcast(cl, d[0], root=1),
    "compressed_bcast": lambda cl, d: compressed_bcast(
        cl, d[0], CONFIG, root=1
    ),
    "hzccl_batched_reduce": lambda cl, d: hzccl_batched_reduce(
        cl, [d, [a * 2 for a in d]], CONFIG
    ),
    "rabenseifner_allreduce": lambda cl, d: rabenseifner_allreduce(cl, d),
    "hzccl_rabenseifner_allreduce": lambda cl, d: (
        hzccl_rabenseifner_allreduce(cl, d, CONFIG)
    ),
    "mpi_hierarchical_allreduce": lambda cl, d: mpi_hierarchical_allreduce(
        cl, d, NODEMAP
    ),
    "hzccl_hierarchical_allreduce": lambda cl, d: (
        hzccl_hierarchical_allreduce(cl, d, CONFIG, NODEMAP, "rabenseifner")
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
