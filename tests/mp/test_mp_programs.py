"""The program table: a cluster ships each schedule to its workers once.

A job names its schedule by a key of the cluster's program table; only
the first job of a key carries the schedule itself.  The table belongs to
one ``MPCluster`` and is bounded — a new schedule past the bound starts
it afresh on both sides through the next job.
"""

from __future__ import annotations

import pytest

from repro.bench.mp import build_case, sim_reference, states_equal
from repro.runtime import mp_cluster
from repro.runtime.faults import FaultPlan
from repro.runtime.mp_cluster import MPCluster
from repro.schedule.mp_executor import MPExecutor


def _assert_matches_simulator(cluster, case) -> None:
    run = MPExecutor(cluster, case.spec).run(case.schedule, case.make_state())
    ref, _ = sim_reference(case)
    assert run.degraded == ref.degraded is False
    assert run.wire == ref.wire
    assert states_equal(run.state, ref.state)


def test_a_schedule_is_shipped_once_per_cluster():
    case = build_case("ring-rs", 3, 4096, seed=1)
    with MPCluster(3) as cluster:
        for _ in range(3):
            _assert_matches_simulator(cluster, case)
        assert cluster.programs_shipped == 1


def test_interleaved_schedules_and_codecs_match_the_simulator():
    # two ring schedules shared by a plain and a homomorphic codec, and
    # two schedules of their own, taking turns on one cluster
    cases = [
        build_case(family, 4, 8192, seed=5)
        for family in ("ring-rs", "direct-reduce", "ring-rs-hz", "rabenseifner")
    ]
    schedules = {id(case.schedule) for case in cases}
    with MPCluster(4) as cluster:
        for _ in range(2):
            for case in cases:
                _assert_matches_simulator(cluster, case)
        assert cluster.programs_shipped == len(schedules)


def test_a_fresh_cluster_after_a_poisoning_abort_ships_again():
    case = build_case("ring-rs-hz", 4, 8192, seed=1)
    with MPCluster(4) as doomed:
        run = MPExecutor(
            doomed, case.spec, plan=FaultPlan(seed=3, corrupt_rate=0.9)
        ).run(case.schedule, case.make_state())
        assert run.degraded and doomed._poisoned is not None
        assert doomed.programs_shipped == 1
    with MPCluster(4) as fresh:
        _assert_matches_simulator(fresh, case)
        assert fresh.programs_shipped == 1


def test_overflowing_the_table_still_runs_every_schedule(monkeypatch):
    monkeypatch.setattr(mp_cluster, "PROGRAM_SLOTS", 2)
    cases = [
        build_case(family, 4, 4096, seed=2)
        for family in ("ring-rs", "rabenseifner", "pipelined-rs")
    ]
    with MPCluster(4) as cluster:
        for _ in range(2):
            for case in cases:
                _assert_matches_simulator(cluster, case)
                assert len(cluster._programs) <= 2
        # three schedules cycling through two slots never hit the table
        assert cluster.programs_shipped == 6


@pytest.mark.parametrize("family", ["ring-rs", "ring-rs-hz"])
def test_a_known_schedule_makes_a_smaller_job(family, monkeypatch):
    # the bytes of a job frame: the first of a key carries the schedule
    sizes: list[int] = []
    dump = mp_cluster.dump_items

    def measuring_dump(items):
        parts = dump(items)
        if type(items[0]).__name__ == "RankJob":
            sizes.append(sum(memoryview(p).nbytes for p in parts))
        return parts

    monkeypatch.setattr(mp_cluster, "dump_items", measuring_dump)
    case = build_case(family, 2, 1024, seed=1)
    with MPCluster(2) as cluster:
        for _ in range(2):
            _assert_matches_simulator(cluster, case)
    first, again = sizes[:2], sizes[2:]
    assert len(again) == 2 and max(again) < min(first)
