"""Regenerate the cross-family equivalence fixtures.

Run from the repo root::

    PYTHONPATH=src python tests/schedule/make_fixtures.py

The fixtures snapshot every collective family's *healthy-run* outputs (and
bytes-on-wire) at n ∈ {2, 4, 8} ranks.  They were produced by the
pre-schedule-IR implementations (the hand-rolled round loops) and pin the
refactored executor to bit-identical behaviour: any change to delivery
order, fold arithmetic, or quantisation along the data path shows up as a
fixture mismatch, not a silent drift.

Only regenerate when intentionally changing numerical behaviour.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime.cluster import SimCluster
from repro.runtime.network import NetworkModel

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
N_ELEMENTS = 4003
NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)
CONFIG = CollectiveConfig(
    error_bound=1e-4, block_size=8, n_threadblocks=3, network=NET
)

#: the family-table rows with a fixture each, run as
#: ``run(FAMILIES[name], cluster, data, CONFIG)`` — the broadcasts send
#: rank 0's vector (``data[0]``), every other row takes all ranks' data
OPS = (
    "mpi_reduce_scatter",
    "mpi_allreduce",
    "ccoll_allreduce",
    "hzccl_reduce_scatter",
    "hzccl_allreduce",
    "rabenseifner_allreduce",
    "hzccl_rabenseifner_allreduce",
    "mpi_reduce",
    "hzccl_reduce",
    "hzccl_reduce_direct",
    "mpi_bcast",
    "compressed_bcast",
)

RANK_COUNTS = (2, 4, 8)


def make_data(n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(0x5EED0 + n)
    return [
        np.cumsum(rng.normal(0, 0.05, N_ELEMENTS)).astype(np.float32)
        for _ in range(n)
    ]


def main() -> None:
    FIXTURE_DIR.mkdir(exist_ok=True)
    for n in RANK_COUNTS:
        data = make_data(n)
        for name in OPS:
            cluster = SimCluster(n, network=NET)
            inputs = data[0] if name.endswith("bcast") else data
            result = run(FAMILIES[name], cluster, inputs, CONFIG)
            payload: dict[str, np.ndarray] = {
                "bytes_on_wire": np.int64(result.bytes_on_wire),
            }
            for i, out in enumerate(result.outputs):
                if out is None:
                    continue  # non-root ranks of rooted ops
                payload[f"out_{i}"] = out
            path = FIXTURE_DIR / f"{name}_n{n}.npz"
            np.savez_compressed(path, **payload)
            print(f"wrote {path.name}: {sorted(payload)}")


if __name__ == "__main__":
    main()
