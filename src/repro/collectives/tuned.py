"""Autotuned Allreduce: consult the tuning table, dispatch the pick.

:func:`tuned_allreduce` closes the loop the tuner opens: classify the
actual data's roughness, describe the call as a
:class:`~repro.core.pipeline.CollectiveRequest`, and let the pipeline's
``plan()`` resolve it (persisted table → in-memory LRU → live
enumeration) and ``execute()`` run the picked candidate's family-table
row (the same row :func:`run_candidate` resolves) — so the tuned path
inherits every family's fault handling and degrade-to-plain contract
unchanged, and repeated shapes hit the process-wide
:class:`~repro.core.pipeline.PlanCache`.

Hierarchical picks need placement information: when the caller passes no
:class:`~repro.runtime.nodemap.NodeMap`, the entry's ``flat_pick`` (the
best non-hierarchical candidate, recorded at tuning time) runs instead —
a table built on a placed grid still serves placement-free callers.

Every decision is observable through :mod:`repro.obs`::

    tuner.lookups                 one per tuned collective
    tuner.source.{table,memo,enumerated}
    tuner.pick.<slug>             which candidate actually ran
    tuner.flat_fallback           hierarchical pick demoted (no nodemap)
"""

from __future__ import annotations

import numpy as np

from ..runtime.cluster import SimCluster
from ..runtime.nodemap import NodeMap
from ..schedule.tuner import (
    Candidate,
    TuningTable,
    candidate_family,
    classify_roughness,
)
from .base import CollectiveResult, validate_local_data
from .interpreter import FAMILIES, run

__all__ = ["tuned_allreduce", "run_candidate"]


def run_candidate(
    cand: Candidate,
    cluster: SimCluster,
    local_data: list[np.ndarray],
    config,
    nodemap: NodeMap | None = None,
) -> CollectiveResult:
    """Run one tuner candidate as its family-table row."""
    name, params = candidate_family(cand, "allreduce", nodemap)
    return run(FAMILIES[name], cluster, local_data, config, **params)


def tuned_allreduce(
    cluster: SimCluster,
    local_data: list[np.ndarray],
    config,
    nodemap: NodeMap | None = None,
    table: TuningTable | None = None,
    rates=None,
) -> CollectiveResult:
    """SUM Allreduce through the schedule autotuner.

    ``table=None`` loads the configured table (``config.tuning_table_path``
    or ``$REPRO_TUNING_TABLE``; missing file ⇒ empty table).  A key miss
    never fails — it falls back to live candidate enumeration, memoised
    process-wide.
    """
    # Lazy: core.pipeline imports this package back (for the family rows).
    from ..core.pipeline import (
        CollectiveRequest,
        PayloadSpec,
        execute,
        plan,
    )

    arrays = validate_local_data(local_data)
    if len(arrays) != cluster.n_ranks:
        raise ValueError(
            f"got {len(arrays)} rank arrays for {cluster.n_ranks} ranks"
        )
    request = CollectiveRequest(
        op="allreduce",
        n_ranks=cluster.n_ranks,
        payload=PayloadSpec.of(arrays[0]),
        nodemap=nodemap,
        tune=True,
        roughness=classify_roughness(arrays[0], config.error_bound),
    )
    resolved = plan(
        request, config, network=cluster.network, table=table, rates=rates
    )
    return execute(resolved, arrays, cluster=cluster, config=config)
