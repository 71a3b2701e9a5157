"""Sim-vs-MP equivalence: the data plane's correctness anchor.

Every schedule family must produce **bit-identical** final state and
**identical** ``bytes_on_wire`` on real processes as on the simulator.
The fast matrix here runs every family at n ≤ 4 (the CI ``mp-smoke``
shape); the full n = 8 sweep lives in the chaos-marked suite.
"""

from __future__ import annotations

import pytest

from repro.bench.mp import (
    FAMILIES,
    build_case,
    sim_reference,
    states_equal,
)
from repro.runtime.mp_cluster import MPCluster
from repro.schedule.mp_executor import MPExecutor


@pytest.fixture(scope="module")
def cluster2():
    with MPCluster(2) as c:
        yield c


@pytest.fixture(scope="module")
def cluster4():
    with MPCluster(4) as c:
        yield c


def _assert_equivalent(cluster, case):
    run = MPExecutor(cluster, case.spec).run(case.schedule, case.make_state())
    ref, _ = sim_reference(case)
    assert run.degraded == ref.degraded is False
    assert run.wire == ref.wire
    assert states_equal(run.state, ref.state)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_matches_simulator_n4(cluster4, family):
    _assert_equivalent(cluster4, build_case(family, 4, 8192, seed=11))


@pytest.mark.parametrize("family", ["ring-rs", "ring-rs-hz", "bcast"])
def test_family_matches_simulator_n2(cluster2, family):
    _assert_equivalent(cluster2, build_case(family, 2, 4096, seed=5))


def test_socket_transport_matches_simulator():
    case = build_case("rabenseifner", 2, 4096, seed=7)
    with MPCluster(2, transport="socket") as cluster:
        _assert_equivalent(cluster, case)


def test_cluster_runs_many_schedules_back_to_back(cluster4):
    # one cluster, several jobs: channels must come back empty each time
    for family in ("ring-rs", "pipelined-rs", "ring-rs"):
        _assert_equivalent(cluster4, build_case(family, 4, 4096, seed=3))


def test_executor_updates_caller_state_in_place(cluster4):
    case = build_case("ring-rs", 4, 4096, seed=2)
    state = case.make_state()
    slices = list(state)
    run = MPExecutor(cluster4, case.spec).run(case.schedule, state)
    for rank in range(4):
        assert state[rank] is slices[rank]  # same dict objects, refilled
        assert run.state[rank] is state[rank]


def test_measured_numbers_are_sane(cluster4):
    case = build_case("ring-rs", 4, 4096, seed=2)
    run = MPExecutor(cluster4, case.spec).run(case.schedule, case.make_state())
    assert run.makespan_s > 0.0
    assert len(run.rank_seconds) == 4
    assert run.stats["frames_sent"] == run.stats["frames_received"]
    assert run.stats["frames_sent"] > 0


def test_cli_family_list_stays_in_sync():
    from repro.cli import _MP_FAMILIES

    assert set(_MP_FAMILIES) == set(FAMILIES)
