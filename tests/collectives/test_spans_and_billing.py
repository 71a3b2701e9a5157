"""Every phase a row runs is spanned, and every aborted stage is billed.

No family row runs a phase outside a span: a row that charges DPR opens
a phase span around each decode.  And a compressed stage that aborts
bills the wire it spent on top of its plain fallback's — the rooted
reduce's compressed gather included.
"""

from __future__ import annotations

import pytest

from repro.collectives import FAMILIES, interpreter, run
from repro.runtime import SimCluster
from repro.runtime.trace import TraceLog

from .span_pins import CONFIG, FORCED, N, fields
from .test_result_boundary import CALLS


def _decodes_outside_a_phase(events) -> tuple[int, int]:
    """``(DPR charges, those with no phase span open)`` in walk order."""
    depth = decodes = bare = 0
    for e in events:
        if e.kind == "begin" and e.bucket == "phase":
            depth += 1
        elif e.kind == "end" and e.bucket == "phase":
            depth -= 1
        elif e.kind == "compute" and e.bucket == "DPR":
            decodes += 1
            bare += depth == 0
    return decodes, bare


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_decode_runs_inside_a_phase_span(name):
    cluster = SimCluster(N, trace=TraceLog())
    CALLS[name](cluster, fields())
    decodes, bare = _decodes_outside_a_phase(cluster.trace.events)
    assert bare == 0, f"{bare} of {decodes} decodes ran outside a phase span"


def test_the_compressed_reduce_spans_its_gather_and_root_decode():
    cluster = SimCluster(N, trace=TraceLog())
    run(FAMILIES["hzccl_reduce"], cluster, fields(), CONFIG, root=1)
    phases = [
        e.label for e in cluster.trace.events
        if e.kind == "begin" and e.bucket == "phase"
    ]
    assert phases[-2:] == ["gather", "decompress"]


def test_an_aborted_compressed_gather_bills_its_wire(monkeypatch):
    """Only the rooted reduce's compressed gather is forced: its wire is
    billed on top of the reduce-scatter's and the plain gather's."""
    data = fields()
    scatter = run(
        FAMILIES["hzccl_reduce_scatter"], SimCluster(N), data, CONFIG
    )
    plain = run(
        FAMILIES["plain_gather"], SimCluster(N), scatter.outputs, root=1
    )
    run_stage = interpreter._run_stage
    aborted = []

    def forced(family, cluster, *args, **kwargs):
        if not family.compressed_input:
            return run_stage(family, cluster, *args, **kwargs)
        # this stage alone runs on a channel that fails every stream
        cluster.faults, cluster._channel = FORCED, None
        try:
            return run_stage(family, cluster, *args, **kwargs)
        except interpreter._Aborted as abort:
            aborted.append((family.name, abort.wire))
            raise
        finally:
            cluster.faults, cluster._channel = None, None

    monkeypatch.setattr(interpreter, "_run_stage", forced)
    result = run(FAMILIES["hzccl_reduce"], SimCluster(N), data, CONFIG, root=1)
    assert result.degraded
    [(name, spent)] = aborted
    assert name == "hzccl_gather" and spent > 0
    assert result.bytes_on_wire == (
        scatter.bytes_on_wire + spent + plain.bytes_on_wire
    )
