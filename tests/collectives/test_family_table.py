"""The family table: one declaration per collective, run/priced/dispatched
from it (DESIGN.md §11)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.collectives import FAMILIES, Family, run
from repro.collectives.ring import MPI_ALLGATHER, MPI_REDUCE_SCATTER
from repro.core.cost_model import PAPER_BROADWELL
from repro.core.pipeline import CollectiveRequest, plan
from repro.runtime import SimCluster
from repro.runtime.nodemap import NodeMap
from repro.schedule import ScheduleExecutor, families
from repro.schedule.codecs import CODECS
from repro.schedule.families import DEFAULT_PARAMS, STAGES, family_cost
from repro.schedule.tuner import (
    TUNABLE_OPS,
    Candidate,
    candidate_family,
    candidate_stages,
    enumerate_candidates,
)

from . import span_pins


# --------------------------------------------------------------------- #
# (a) every row degrades to something plain; every old dispatch resolves
# --------------------------------------------------------------------- #
def _is_plain(row: Family) -> bool:
    return all(stage.codec == "plain" for stage in row.stages)


def test_table_halves_cover_the_same_names():
    assert set(FAMILIES) == set(STAGES)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_fallback_chain_ends_in_a_plain_row(name):
    row, seen = FAMILIES[name], []
    while row.fallback is not None:
        assert row not in seen, "fallback cycle"
        seen.append(row)
        row = row.fallback
    if _is_plain(row):
        return
    if row.span is None:
        # an inline stage aborts up to the composed row that nests it
        owners = [f for f in FAMILIES.values() if row in f.steps]
        assert owners and all(f.fallback is not None for f in owners)
        return
    # a composed row without a fallback: every step handles its own
    assert row.steps and all(
        step.fallback is not None or _is_plain(step) for step in row.steps
    )


def test_family_refuses_steps_it_is_not_priced_as():
    with pytest.raises(ValueError, match="does not run the stages"):
        Family("mpi_allreduce", steps=(MPI_ALLGATHER, MPI_REDUCE_SCATTER))
    assert FAMILIES["mpi_allreduce"].steps == (
        MPI_REDUCE_SCATTER, MPI_ALLGATHER,
    )


STATIC = {
    ("reduce_scatter", "hzccl"): "hzccl_reduce_scatter",
    ("reduce_scatter", "ccoll"): "ccoll_reduce_scatter",
    ("reduce_scatter", "mpi"): "mpi_reduce_scatter",
    ("allreduce", "hzccl"): "hzccl_allreduce",
    ("allreduce", "ccoll"): "ccoll_allreduce",
    ("allreduce", "mpi"): "mpi_allreduce",
    ("reduce", "hzccl"): "hzccl_reduce",
    ("reduce", "hzccl-direct"): "hzccl_reduce_direct",
    ("reduce", "mpi"): "mpi_reduce",
    ("bcast", "hzccl"): "compressed_bcast",
    ("bcast", "mpi"): "mpi_bcast",
    ("batched-reduce", "hzccl"): "hzccl_batched_reduce",
}


@pytest.mark.parametrize("op,kernel", sorted(STATIC))
def test_static_dispatch_resolves_to_a_row(op, kernel):
    p = plan(CollectiveRequest(op=op, n_ranks=4, kernel=kernel), cache=None)
    assert p.spec is FAMILIES[STATIC[op, kernel]]
    assert p.params["root"] == 0


@pytest.mark.parametrize("kernel", ["hzccl", "mpi"])
def test_hierarchical_dispatch_resolves_inter_at_plan_time(kernel):
    nodemap = NodeMap.regular(4, 2)
    p = plan(
        CollectiveRequest(
            op="allreduce", n_ranks=4, kernel=kernel, nodemap=nodemap
        ),
        cache=None,
    )
    assert p.spec is FAMILIES[f"{kernel}_hierarchical_allreduce"]
    assert p.family == "hier-ring" and p.params["inter"] == "ring"


@pytest.mark.parametrize(
    "request_kw,text",
    [
        (dict(op="allreduce", kernel="nccl"),
         r"kernel must be one of \('hzccl', 'ccoll', 'mpi'\), got 'nccl'"),
        (dict(op="reduce_scatter", kernel="x"), "kernel must be one of"),
        (dict(op="allreduce", kernel="ccoll", nodemap=NodeMap.regular(4, 2)),
         "hierarchical allreduce supports kernels 'hzccl' and 'mpi', "
         "got 'ccoll'"),
        (dict(op="reduce", kernel="x"),
         "kernel must be 'hzccl', 'hzccl-direct' or 'mpi', got 'x'"),
        (dict(op="bcast", kernel="x"),
         "kernel must be 'hzccl' or 'mpi', got 'x'"),
    ],
)
def test_unknown_kernels_keep_their_messages(request_kw, text):
    with pytest.raises(ValueError, match=text):
        plan(CollectiveRequest(n_ranks=4, **request_kw), cache=None)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("op", TUNABLE_OPS)
def test_every_candidate_resolves_to_a_row(op, n):
    nodemap = NodeMap.regular(n, 2)
    for cand in enumerate_candidates(n, nodemap, op=op):
        name, params = candidate_family(cand, op, nodemap)
        assert name in FAMILIES
        assert params["chunks"] == cand.chunks
        if cand.hierarchical:
            assert params["nodemap"] is nodemap
            assert cand.family == f"hier-{params['inter']}"


def test_unresolvable_candidates_keep_their_messages():
    hier = Candidate("hier-ring", "hz", ranks_per_node=2)
    with pytest.raises(ValueError, match="hier-ring2-hz needs a nodemap"):
        candidate_family(hier, "allreduce")
    with pytest.raises(ValueError, match="no tuned dispatch for op 'scan'"):
        candidate_family(Candidate("ring", "hz"), "scan")
    # the old ladders fell through to some other family here
    with pytest.raises(ValueError, match="direct-hz does not implement"):
        candidate_family(Candidate("direct", "hz"), "allreduce")


# --------------------------------------------------------------------- #
# (b) priced ≡ run
# --------------------------------------------------------------------- #
@pytest.fixture()
def executed(monkeypatch):
    """Every (schedule, codec class) the executor is handed, in order."""
    seen = []
    real = ScheduleExecutor.run

    def spy(self, schedule, state):
        seen.append((schedule, type(self.codec).__name__))
        return real(self, schedule, state)

    monkeypatch.setattr(ScheduleExecutor, "run", spy)
    return seen


CODEC_CLASS = {kind: codec.__name__ for kind, codec in CODECS.items()}


def _assert_priced_is_run(row: Family, priced, executed, params):
    assert len(priced) == len(executed) == len(row.stages)
    for stage, (p_sched, p_disc), (x_sched, x_codec) in zip(
        row.stages, priced, executed
    ):
        assert p_disc is stage.discipline
        assert x_codec == CODEC_CLASS[stage.codec]
        assert x_sched is stage.schedule(**params)
        assert p_sched is x_sched


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("op", TUNABLE_OPS)
def test_candidates_price_the_objects_the_interpreter_runs(op, n, executed):
    nodemap = NodeMap.regular(n, 2)
    data = span_pins.fields(n)
    for cand in enumerate_candidates(n, nodemap, op=op):
        placement = nodemap if cand.hierarchical else None
        priced = candidate_stages(cand, n, placement, op)
        name, params = candidate_family(cand, op, placement)
        del executed[:]
        cluster = SimCluster(n)
        run(
            FAMILIES[name], cluster, data[0] if op == "bcast" else data,
            span_pins.CONFIG, **params,
        )
        bound = {
            **DEFAULT_PARAMS, "n": n, "network": cluster.network, **params,
        }
        _assert_priced_is_run(FAMILIES[name], priced, executed, bound)


#: row → the params it is priced and run with: the ten rows the figure
#: benchmarks price by name (the ``ccoll_*`` and reduce-scatter rows are
#: no tuner candidates, so the test above never reaches them)
MODELS = {
    "mpi_reduce_scatter": {},
    "mpi_allreduce": {},
    "ccoll_reduce_scatter": {},
    "ccoll_allreduce": {},
    "hzccl_reduce_scatter": {},
    "hzccl_allreduce": {},
    "hzccl_pipelined_allreduce": {"chunks": 2},
    "hzccl_reduce_direct": {},
    "mpi_hierarchical_allreduce": {"nodemap": span_pins.NODEMAP},
    "hzccl_hierarchical_allreduce": {"nodemap": span_pins.NODEMAP},
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_models_price_the_objects_the_interpreter_runs(
    name, executed, monkeypatch
):
    params = MODELS[name]
    priced = []
    real = families.schedule_cost

    def spy(schedule, discipline, *args):
        priced.append((schedule, discipline))
        return real(schedule, discipline, *args)

    monkeypatch.setattr(families, "schedule_cost", spy)
    cluster = SimCluster(span_pins.N)
    family_cost(
        name, 1 << 20, PAPER_BROADWELL, cluster.network, n=span_pins.N,
        **params,
    )
    run(
        FAMILIES[name], cluster, span_pins.fields(), span_pins.CONFIG,
        **params,
    )
    bound = {
        **DEFAULT_PARAMS, "n": span_pins.N, "network": cluster.network,
        **params,
    }
    _assert_priced_is_run(FAMILIES[name], priced, executed, bound)


UNBOUND = [
    ("hzccl_pipelined_allreduce", "pipelined_ring_reduce_scatter", "chunks"),
    ("mpi_hierarchical_allreduce", "_hierarchical_allreduce", "nodemap"),
    ("hzccl_hierarchical_allreduce", "_hierarchical_allreduce", "nodemap"),
]


@pytest.mark.parametrize("name,generator,param", UNBOUND)
def test_run_names_an_unbound_param(name, generator, param):
    with pytest.raises(
        ValueError, match=f"generator {generator} needs .*'{param}'"
    ):
        run(
            FAMILIES[name], SimCluster(span_pins.N), span_pins.fields(),
            span_pins.CONFIG,
        )


@pytest.mark.parametrize("name,generator,param", UNBOUND)
def test_family_cost_names_an_unbound_param(name, generator, param):
    network = SimCluster(span_pins.N).network
    with pytest.raises(
        ValueError, match=f"generator {generator} needs .*'{param}'"
    ):
        family_cost(name, 1 << 20, PAPER_BROADWELL, network, n=span_pins.N)


@pytest.mark.parametrize("n,total", [(0, 1 << 20), (2.5, 1 << 20), (4, 0)])
def test_family_cost_checks_its_inputs(n, total):
    network = SimCluster(span_pins.N).network
    with pytest.raises(ValueError, match="must be a positive"):
        family_cost("hzccl_allreduce", total, PAPER_BROADWELL, network, n=n)


# --------------------------------------------------------------------- #
# (c) span trees, pinned at the commit before the table existed
# --------------------------------------------------------------------- #
def test_span_trees_match_the_pre_table_characterisation():
    pinned = json.loads(
        (Path(__file__).parent / "family_spans.json").read_text()
    )
    assert span_pins.characterise() == pinned
