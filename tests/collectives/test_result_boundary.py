"""No quantised block reaches a caller.

Inside one collective the homomorphic codec keeps a rank's own blocks as
:class:`~repro.compression.format.QuantisedField`, across the fused
hand-off between two stages of a composed row too.  What a caller gets —
every ``CollectiveResult`` of every row of the family table, inner rows
run on their own included — holds arrays and compressed streams only:
healthy, with every compressed delivery forced unrecoverable, and with
only the stage that takes compressed input forced (its fallback starts
from the quantised hand-off).
"""

from __future__ import annotations

import pytest

from repro.collectives import FAMILIES, interpreter, run
from repro.compression.format import QuantisedField
from repro.runtime import SimCluster, UnrecoverableStreamError

from .span_pins import CONFIG, FORCED, N, NODEMAP, fields


def _sealed(name, data, **params):
    """A row's outputs from a healthy side cluster (compressed inputs for
    the rows that take them)."""
    return run(FAMILIES[name], SimCluster(len(data)), data, CONFIG, **params).outputs


def _short(data):
    return [a[:300] for a in data]


#: row → how to call it on a cluster with the standard fields
CALLS = {
    "mpi_reduce_scatter": lambda cl, d: run(FAMILIES["mpi_reduce_scatter"], cl, d),
    "mpi_allgather": lambda cl, d: run(FAMILIES["mpi_allgather"], cl, _short(d)),
    "mpi_allreduce": lambda cl, d: run(FAMILIES["mpi_allreduce"], cl, d),
    "ccoll_reduce_scatter": lambda cl, d: run(
        FAMILIES["ccoll_reduce_scatter"], cl, d, CONFIG
    ),
    "ccoll_allgather": lambda cl, d: run(
        FAMILIES["ccoll_allgather"], cl, _short(d), CONFIG
    ),
    "ccoll_allreduce": lambda cl, d: run(FAMILIES["ccoll_allreduce"], cl, d, CONFIG),
    "hzccl_reduce_scatter": lambda cl, d: run(
        FAMILIES["hzccl_reduce_scatter"], cl, d, CONFIG
    ),
    "hzccl_reduce_scatter_fused": lambda cl, d: run(
        FAMILIES["hzccl_reduce_scatter_fused"], cl, d, CONFIG
    ),
    "hzccl_allgather_compressed": lambda cl, d: run(
        FAMILIES["hzccl_allgather_compressed"], cl,
        _sealed("hzccl_reduce_scatter_fused", d), CONFIG,
    ),
    "hzccl_allreduce": lambda cl, d: run(FAMILIES["hzccl_allreduce"], cl, d, CONFIG),
    "pipelined_reduce_scatter": lambda cl, d: run(
        FAMILIES["pipelined_reduce_scatter"], cl, d, CONFIG, chunks=2
    ),
    "pipelined_allgather": lambda cl, d: run(
        FAMILIES["pipelined_allgather"], cl,
        _sealed("pipelined_reduce_scatter", d, chunks=2), CONFIG, chunks=2,
    ),
    "hzccl_pipelined_allreduce": lambda cl, d: run(
        FAMILIES["hzccl_pipelined_allreduce"], cl, d, CONFIG, chunks=2
    ),
    "plain_gather": lambda cl, d: run(
        FAMILIES["plain_gather"], cl, _short(d), root=1
    ),
    "hzccl_gather": lambda cl, d: run(
        FAMILIES["hzccl_gather"], cl,
        _sealed("hzccl_reduce_scatter_fused", d), CONFIG, root=1,
    ),
    "mpi_reduce": lambda cl, d: run(FAMILIES["mpi_reduce"], cl, d, root=1),
    "hzccl_reduce": lambda cl, d: run(
        FAMILIES["hzccl_reduce"], cl, d, CONFIG, root=1
    ),
    "hzccl_reduce_direct": lambda cl, d: run(
        FAMILIES["hzccl_reduce_direct"], cl, d, CONFIG, root=1
    ),
    "hzccl_batched_reduce": lambda cl, d: run(
        FAMILIES["hzccl_batched_reduce"], cl, [d, [a * 2 for a in d]], CONFIG
    ),
    "mpi_bcast": lambda cl, d: run(FAMILIES["mpi_bcast"], cl, d[0], root=1),
    "compressed_bcast": lambda cl, d: run(
        FAMILIES["compressed_bcast"], cl, d[0], CONFIG, root=1
    ),
    "rabenseifner_allreduce": lambda cl, d: run(
        FAMILIES["rabenseifner_allreduce"], cl, d
    ),
    "hzccl_rabenseifner_allreduce": lambda cl, d: run(
        FAMILIES["hzccl_rabenseifner_allreduce"], cl, d, CONFIG
    ),
    "mpi_hierarchical_allreduce": lambda cl, d: run(
        FAMILIES["mpi_hierarchical_allreduce"], cl, d, nodemap=NODEMAP
    ),
    "hzccl_hierarchical_allreduce": lambda cl, d: run(
        FAMILIES["hzccl_hierarchical_allreduce"], cl, d, CONFIG,
        nodemap=NODEMAP,
    ),
}


def _quantised(value) -> bool:
    if isinstance(value, QuantisedField):
        return True
    if isinstance(value, (list, tuple)):
        return any(map(_quantised, value))
    return False


def test_every_row_is_called():
    assert set(CALLS) == set(FAMILIES)


@pytest.mark.parametrize("faults", [None, FORCED], ids=["healthy", "forced"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_quantised_block_reaches_a_result(name, faults):
    try:
        result = CALLS[name](SimCluster(N, faults=faults), fields())
    except UnrecoverableStreamError as error:
        # an inline stage run on its own has no fallback: no result at
        # all, and the error names the row
        assert faults is not None and FAMILIES[name].fallback is None
        assert str(error).startswith(f"{name}: ")
        return
    assert not any(map(_quantised, result.outputs))


@pytest.mark.parametrize(
    "name", ["hzccl_allreduce", "hzccl_reduce", "hzccl_pipelined_allreduce"]
)
def test_a_forced_hand_off_reaches_no_result_quantised(monkeypatch, name):
    """Only the stage fed the quantised hand-off fails."""
    run_stage = interpreter._run_stage

    def forced(family, cluster, *args, **kwargs):
        if family.compressed_input:
            cluster.faults, cluster._channel = FORCED, None
        return run_stage(family, cluster, *args, **kwargs)

    monkeypatch.setattr(interpreter, "_run_stage", forced)
    result = CALLS[name](SimCluster(N), fields())
    assert result.degraded
    assert not any(map(_quantised, result.outputs))
