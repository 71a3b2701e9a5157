"""Executed behaviour of the autotuned allreduce.

Covers the lookup chain end-to-end (explicit table → config path → env
var → live enumeration), the no-placement demotion of hierarchical
picks, the obs counters, and the facade's ``allreduce(tune=True)``.
A test that forces a table plans a ``tune=True`` request itself and
executes the plan on its own cluster.
"""

import numpy as np
import pytest

from dataclasses import replace

from repro.collectives import FAMILIES, run
from repro.core import HZCCL
from repro.core.config import CollectiveConfig
from repro.core.pipeline import CollectiveRequest, PayloadSpec, execute, plan
from repro.obs.metrics import metrics_enabled
from repro.runtime import NodeMap, SimCluster, TorusNetwork
from repro.schedule.tuner import (
    Candidate,
    TableEntry,
    TuningKey,
    TuningTable,
    classify_roughness,
    size_bucket,
)

EB = 1e-3
CONFIG = CollectiveConfig(error_bound=EB)
N = 4
N_ELEMENTS = 720
TORUS = replace(CONFIG, network=TorusNetwork())

def _data(n: int = N) -> list[np.ndarray]:
    return [
        np.sin(np.linspace(0, 9, N_ELEMENTS) + r).astype(np.float32)
        for r in range(n)
    ]


def _exact(data) -> np.ndarray:
    return np.sum(np.stack(data), axis=0, dtype=np.float64).astype(np.float32)


def _key_for(data, network, n: int = N) -> TuningKey:
    return TuningKey(
        op="allreduce",
        dtype=str(data[0].dtype),
        bucket=size_bucket(int(data[0].nbytes)),
        n_ranks=n,
        fabric="torus" if isinstance(network, TorusNetwork) else "base",
        roughness=classify_roughness(data[0], EB),
    )


def _tuned(data, nodemap: NodeMap | None = None) -> CollectiveRequest:
    """The ``tune=True`` allreduce request the facade builds for ``data``."""
    return CollectiveRequest(
        op="allreduce",
        n_ranks=len(data),
        payload=PayloadSpec.of(data[0]),
        nodemap=nodemap,
        tune=True,
        roughness=classify_roughness(data[0], EB),
    )


def _forced_table(key: TuningKey, slug: str, flat_slug: str | None = None) -> TuningTable:
    pick = Candidate.parse(slug)
    flat = Candidate.parse(flat_slug or slug)
    return TuningTable(
        {key: TableEntry(pick=pick, cost_s=1.0, flat_pick=flat, flat_cost_s=2.0)}
    )


def test_tuned_allreduce_is_correct_on_a_miss():
    """No table anywhere: live enumeration picks something that works."""
    data = _data()
    result = HZCCL(TORUS).allreduce(data, tune=True)
    assert not result.degraded
    bound = (2 * N + 1) * EB
    for out in result.outputs:
        np.testing.assert_allclose(out, _exact(data), atol=bound)


def test_forced_table_pick_is_honoured():
    data = _data()
    net = TorusNetwork()
    table = _forced_table(_key_for(data, net), "ring-plain")
    cluster = SimCluster(N, network=net)
    with metrics_enabled() as registry:
        result = execute(
            plan(_tuned(data), CONFIG, network=net, table=table), data,
            cluster=cluster,
        )
    assert registry.counter("tuner.lookups") == 1
    assert registry.counter("tuner.source.table") == 1
    assert registry.counter("tuner.pick.ring-plain") == 1
    # ring-plain is exact up to float associativity — no quantisation
    reference = run(FAMILIES["mpi_allreduce"], SimCluster(N, network=net), data)
    for out, ref in zip(result.outputs, reference.outputs):
        np.testing.assert_array_equal(out, ref)


def test_hierarchical_pick_runs_with_nodemap():
    data = _data()
    net = TorusNetwork()
    table = _forced_table(
        _key_for(data, net), "hier-ring2-hz", flat_slug="ring-hz"
    )
    nodemap = NodeMap.regular(N, 2)
    with metrics_enabled() as registry:
        result = execute(
            plan(_tuned(data, nodemap), CONFIG, network=net, table=table),
            data, cluster=SimCluster(N, network=net),
        )
    assert registry.counter("tuner.pick.hier-ring2-hz") == 1
    assert registry.counter("tuner.flat_fallback") == 0
    np.testing.assert_allclose(
        result.outputs[0], _exact(data), atol=(2 * N + 1) * EB
    )


def test_hierarchical_pick_demotes_to_flat_without_nodemap():
    data = _data()
    net = TorusNetwork()
    table = _forced_table(
        _key_for(data, net), "hier-ring2-hz", flat_slug="rabenseifner-hz"
    )
    with metrics_enabled() as registry:
        result = execute(
            plan(_tuned(data), CONFIG, network=net, table=table), data,
            cluster=SimCluster(N, network=net),
        )
    assert registry.counter("tuner.flat_fallback") == 1
    assert registry.counter("tuner.pick.rabenseifner-hz") == 1
    assert registry.counter("tuner.pick.hier-ring2-hz") == 0
    assert not result.degraded


def test_table_resolution_config_and_env(tmp_path, monkeypatch):
    data = _data()
    net = TorusNetwork()
    table = _forced_table(_key_for(data, net), "ring-plain")

    config_path = tmp_path / "config_table.json"
    table.save(str(config_path))
    config = CollectiveConfig(
        error_bound=EB, network=net, tuning_table_path=str(config_path)
    )
    with metrics_enabled() as registry:
        HZCCL(config).allreduce(data, tune=True)
    assert registry.counter("tuner.source.table") == 1

    env_path = tmp_path / "env_table.json"
    table.save(str(env_path))
    monkeypatch.setenv("REPRO_TUNING_TABLE", str(env_path))
    with metrics_enabled() as registry:
        HZCCL(TORUS).allreduce(data, tune=True)
    assert registry.counter("tuner.source.table") == 1

    # a configured-but-missing table degrades to a miss, not an error
    monkeypatch.setenv("REPRO_TUNING_TABLE", str(tmp_path / "absent.json"))
    with metrics_enabled() as registry:
        result = HZCCL(TORUS).allreduce(data, tune=True)
    assert registry.counter("tuner.source.table") == 0
    assert not result.degraded


def test_rank_count_mismatch_rejected():
    with pytest.raises(ValueError):
        execute(plan(_tuned(_data(4)), CONFIG), _data(4), cluster=SimCluster(3))


def test_facade_tune_flag():
    lib = HZCCL(CollectiveConfig(error_bound=EB))
    data = _data(8)
    result = lib.allreduce(data, tune=True)
    assert not result.degraded
    np.testing.assert_allclose(
        result.outputs[0], _exact(data), atol=(2 * 8 + 1) * EB
    )
    # tune composes with placement: hierarchical candidates are in play
    placed = lib.allreduce(data, tune=True, nodemap=NodeMap.regular(8, 4))
    np.testing.assert_allclose(
        placed.outputs[0], _exact(data), atol=(2 * 8 + 1) * EB
    )
