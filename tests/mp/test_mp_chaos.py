"""MP data plane under seeded faults + fail-clean failure modes.

Chaos-marked: the seeded-fault matrix and the full n = 8 family sweep
run in the chaos CI job, keeping the main matrix fast.
"""

from __future__ import annotations

import pytest

from repro.bench.mp import (
    FAMILIES,
    build_case,
    sim_reference,
    states_equal,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.mp_cluster import MPCluster, MPClusterError
from repro.schedule.mp_executor import MPExecutor

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def cluster4():
    with MPCluster(4) as c:
        yield c


@pytest.fixture(scope="module")
def cluster8():
    with MPCluster(8) as c:
        yield c


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_matches_simulator_n8(cluster8, family):
    case = build_case(family, 8, 16384, seed=23)
    run = MPExecutor(cluster8, case.spec).run(case.schedule, case.make_state())
    ref, _ = sim_reference(case)
    assert run.degraded == ref.degraded is False
    assert run.wire == ref.wire
    assert states_equal(run.state, ref.state)


#: intensities of the seeded matrix: 0.05 is mostly healthy, 0.1 reaches
#: retransmits / duplicates / damaged frames on every wire style without
#: exhausting a stream, 0.3 adds forced plain deliveries and runs that
#: degrade
INTENSITIES = (0.05, 0.1, 0.3)
SEEDS = range(6)

#: MP ``run.stats`` key → the simulator's ``FaultStats`` it must equal
#: (summed over ranks) on every run that does not degrade
COUNTERS = {
    "retransmits": lambda s: s.retransmissions,
    "forced_deliveries": lambda s: s.forced_deliveries,
    "duplicates_discarded": lambda s: s.duplicates,
    "damaged_rejected": lambda s: s.corruptions + s.truncations,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chaos_plan_matches_simulator(cluster4, family, seed):
    # the sender walks the same per-link fault indices the simulator
    # consumes, so injected faults (drops, damage, duplicates, forced
    # deliveries) leave identical state, wire accounting and fault
    # counters on every wire style
    case = build_case(family, 4, 8192, seed=seed)
    for intensity in INTENSITIES:
        plan = FaultPlan.chaos(seed, 4, intensity=intensity)
        ref, ref_stats = sim_reference(case, plan)
        if ref.degraded:
            # ranks stop at different comms, so only the flag and the
            # poison contract carry over — on a cluster of its own
            with MPCluster(4) as doomed:
                run = MPExecutor(doomed, case.spec, plan=plan).run(
                    case.schedule, case.make_state()
                )
                assert run.degraded is True
                with pytest.raises(MPClusterError, match="poisoned"):
                    doomed.run_schedule(
                        case.schedule, case.spec, case.make_state()
                    )
            continue
        run = MPExecutor(cluster4, case.spec, plan=plan).run(
            case.schedule, case.make_state()
        )
        assert run.degraded == ref.degraded, intensity
        assert run.wire == ref.wire, intensity
        assert states_equal(run.state, ref.state), intensity
        for key, expected in COUNTERS.items():
            assert run.stats[key] == expected(ref_stats), (intensity, key)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chaos_matrix_exercises_every_counter(family):
    # the matrix above only guards an arm if its non-aborting runs really
    # retransmit, duplicate and damage something there
    seen = dict.fromkeys(("retransmissions", "duplicates", "damaged"), 0)
    for seed in SEEDS:
        case = build_case(family, 4, 8192, seed=seed)
        for intensity in INTENSITIES:
            ref, stats = sim_reference(case, FaultPlan.chaos(seed, 4, intensity))
            if not ref.degraded:
                seen["retransmissions"] += stats.retransmissions
                seen["duplicates"] += stats.duplicates
                seen["damaged"] += stats.corruptions + stats.truncations
    assert all(seen.values()), seen


def test_chaos_replay_is_deterministic(cluster4):
    plan = FaultPlan.chaos(42, 4, intensity=0.08)
    case = build_case("ring-rs", 4, 8192, seed=1)
    runs = [
        MPExecutor(cluster4, case.spec, plan=plan).run(
            case.schedule, case.make_state()
        )
        for _ in range(2)
    ]
    assert runs[0].wire == runs[1].wire
    assert runs[0].stats == runs[1].stats
    assert states_equal(runs[0].state, runs[1].state)


def test_schedule_degrade_poisons_the_cluster():
    # an unrecoverable compressed stream aborts the whole run; sim and MP abort at rank-dependent points, so the
    # contract is the matching degraded flag — and the cluster refuses
    # further jobs (undelivered frames may sit in the rings)
    plan = FaultPlan(seed=3, corrupt_rate=0.9)
    case = build_case("ring-rs-hz", 4, 8192, seed=1)
    with MPCluster(4) as cluster:
        run = MPExecutor(cluster, case.spec, plan=plan).run(
            case.schedule, case.make_state()
        )
        ref, _ = sim_reference(case, plan=plan)
        assert run.degraded is True
        assert ref.degraded is True
        with pytest.raises(MPClusterError, match="poisoned"):
            cluster.run_schedule(
                case.schedule, case.spec, case.make_state()
            )


def test_worker_exception_fails_clean():
    # an empty initial state makes every rank's pack blow up; the parent
    # must surface one MPClusterError with the worker traceback and tear
    # the cluster down instead of hanging
    case = build_case("ring-rs", 2, 4096, seed=1)
    with MPCluster(2) as cluster:
        with pytest.raises(MPClusterError, match="KeyError"):
            cluster.run_schedule(
                case.schedule, case.spec, [{}, {}]
            )
        with pytest.raises(MPClusterError):
            cluster.run_schedule(case.schedule, case.spec, case.make_state())


def test_dead_worker_detected_not_hung():
    case = build_case("ring-rs", 2, 4096, seed=1)
    with MPCluster(2) as cluster:
        cluster._procs[1].terminate()
        cluster._procs[1].join(timeout=5.0)
        with pytest.raises(MPClusterError):
            cluster.run_schedule(case.schedule, case.spec, case.make_state())


def test_wrong_rank_count_rejected_eagerly(cluster4):
    case = build_case("ring-rs", 2, 4096, seed=1)
    with pytest.raises(MPClusterError, match="ranks"):
        cluster4.run_schedule(case.schedule, case.spec, case.make_state())
