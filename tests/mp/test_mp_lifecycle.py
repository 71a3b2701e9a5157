"""Worker lifecycle on the real plane: deaths seen by event, no leaks."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.bench.mp import build_case, sim_reference, states_equal
from repro.runtime.faults import FaultPlan
from repro.runtime.mp_channel import FRAME_ABORT
from repro.runtime.mp_cluster import MPCluster, MPClusterError
from repro.schedule.mp_executor import MPExecutor


_HAS_PROC = os.path.isdir("/proc/self/task")


def _open_fds() -> list[str] | None:
    """This process's open descriptors, or None where /proc is missing."""
    return sorted(os.listdir("/proc/self/fd")) if _HAS_PROC else None


def test_rank_killed_mid_schedule_fails_fast_and_leaks_nothing():
    # rank 1 is frozen before dispatch, so its peers block on its frames;
    # then it is SIGKILLed.  Its process sentinel wakes the parent, which
    # aborts the peers: the run fails in well under the 10 s receive
    # deadline a peer would otherwise sit out.
    case = build_case("ring-rs", 3, 4096, seed=1)
    fds = _open_fds()
    cluster = MPCluster(3)
    cluster.start()
    try:
        victim = cluster._procs[1].pid
        os.kill(victim, signal.SIGSTOP)
        killed_at: list[float] = []

        def kill_later() -> None:
            time.sleep(0.3)
            killed_at.append(time.monotonic())
            os.kill(victim, signal.SIGKILL)

        killer = threading.Thread(target=kill_later)
        killer.start()
        try:
            with pytest.raises(MPClusterError, match="rank 1: worker died"):
                cluster.run_schedule(
                    case.schedule, case.spec, case.make_state()
                )
            raised_at = time.monotonic()
        finally:
            killer.join()
        assert raised_at - killed_at[0] < 2.0
    finally:
        cluster.shutdown()
    # every socket pair the cluster opened is closed again
    assert _open_fds() == fds


@pytest.mark.skipif(not _HAS_PROC, reason="needs Linux /proc")
def test_sender_threads_are_started_once_per_worker():
    case = build_case("ring-rs", 3, 4096, seed=1)
    with MPCluster(3) as cluster:

        def threads() -> list[int]:
            return [
                len(os.listdir(f"/proc/{p.pid}/task")) for p in cluster._procs
            ]

        executor = MPExecutor(cluster, case.spec)
        executor.run(case.schedule, case.make_state())
        after_one = threads()
        for _ in range(49):
            executor.run(case.schedule, case.make_state())
        assert threads() == after_one
        # the main thread plus one sender per peer, alive between jobs
        assert all(count >= 3 for count in after_one)


def _assert_matches_simulator(cluster, case) -> None:
    run = MPExecutor(cluster, case.spec).run(case.schedule, case.make_state())
    ref, _ = sim_reference(case)
    assert run.degraded == ref.degraded is False
    assert run.wire == ref.wire
    assert states_equal(run.state, ref.state)


def test_idle_workers_outwait_the_receive_deadline():
    # an idle worker waits for its next control frame with no deadline:
    # idling longer than recv_timeout_s, before the first job and between
    # two, costs nothing
    case = build_case("ring-rs", 2, 4096, seed=1)
    with MPCluster(2, recv_timeout_s=0.2) as cluster:
        for _ in range(2):
            time.sleep(0.5)
            _assert_matches_simulator(cluster, case)


def test_stale_abort_to_an_idle_worker_is_skipped():
    case = build_case("ring-rs", 2, 4096, seed=1)
    with MPCluster(2) as cluster:
        for rank in range(2):
            cluster._signal(rank, FRAME_ABORT)
        time.sleep(0.1)  # the workers read the aborts while idle
        _assert_matches_simulator(cluster, case)


@pytest.mark.parametrize("poisoned", [False, True])
def test_shutdown_lets_every_worker_exit_cleanly(poisoned):
    # STOP reaches idle workers, even behind the stale aborts a poisoning
    # run leaves unread; none has to be terminated
    case = build_case("ring-rs-hz", 4, 8192, seed=1)
    plan = FaultPlan(seed=3, corrupt_rate=0.9) if poisoned else None
    cluster = MPCluster(4)
    cluster.start()
    procs = list(cluster._procs)
    try:
        run = MPExecutor(cluster, case.spec, plan=plan).run(
            case.schedule, case.make_state()
        )
        assert run.degraded is poisoned
        assert (cluster._poisoned is not None) is poisoned
    finally:
        cluster.shutdown()
    assert [p.exitcode for p in procs] == [0] * 4


def test_only_the_socket_transport_is_accepted():
    # the keyword stays for callers that name it; nothing else is built
    assert MPCluster(2, transport="socket").n_ranks == 2
    with pytest.raises(ValueError, match="shared-memory transport"):
        MPCluster(2, transport="shm")
