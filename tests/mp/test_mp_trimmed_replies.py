"""A worker's reply carries only the blocks its run changed.

``execute_rank`` answers :data:`~repro.runtime.mp_cluster.KEPT` for every
block that is still the very object its job delivered, and the parent
puts back the array it sent (:func:`~repro.runtime.mp_cluster.
rebuild_state`).  That is sound only if no codec writes a job's input
arrays, so this checks the premise where it must hold: the ranks of every
``bench/mp`` family run ``execute_rank`` in threads of this process over
real socket pairs, fault-free and on two chaos seeds, and afterwards

* every array a job delivered is byte-identical to what arrived, and
* the trimmed replies rebuild exactly the simulator's state and wire.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.bench.mp import FAMILIES, build_case, sim_reference, states_equal
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.runtime.mp_channel import (
    FRAME_JOB,
    Frame,
    SenderPool,
    SocketChannel,
    dump_items,
    load_items,
    recv_frame,
    send_frame,
)
from repro.runtime.mp_cluster import KEPT, rebuild_state
from repro.schedule.mp_executor import RankJob, execute_rank

N = 4
#: 0.1 retransmits, duplicates and damages on every wire style without
#: exhausting a stream, so no run aborts (tests/mp/test_mp_chaos.py)
CHAOS_SEEDS = (1, 2)


def _arrived(state: dict) -> dict:
    """``state`` as a worker receives it: through a socket pair, rebuilt
    as views of one aligned receive buffer."""
    a, b = socket.socketpair()
    tx, rx = SocketChannel(a), SocketChannel(b)
    try:
        deadline = time.monotonic() + 5.0
        send_frame(tx, Frame(FRAME_JOB, payload=dump_items((state,))), deadline)
        (out,) = load_items(recv_frame(rx, deadline).payload)
        return out
    finally:
        tx.close()
        rx.close()


def _image(value) -> bytes:
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value.to_bytes()


def _run_ranks_in_threads(case, plan):
    """Every rank's ``execute_rank`` on its own thread, over a full mesh
    of socket pairs; returns the delivered states and the results."""
    n = case.n_ranks
    send = [{} for _ in range(n)]
    recv = [{} for _ in range(n)]
    channels = []
    for i in range(n):
        for j in range(n):
            if i != j:
                a, b = socket.socketpair()
                send[i][j], recv[j][i] = SocketChannel(a), SocketChannel(b)
                channels += [send[i][j], recv[j][i]]
    pools = [SenderPool(send[r]) for r in range(n)]
    delivered = [_arrived(s) for s in case.make_state()]
    results: list = [None] * n

    def rank_main(r: int) -> None:
        job = RankJob(0, case.spec, delivered[r], plan, RetryPolicy(), 10.0)
        results[r] = execute_rank(
            r, n, pools[r], recv[r], job, case.schedule, lambda: None
        )

    try:
        # what arrived, before any run: the copies the check compares to
        images = [{b: _image(v) for b, v in s.items()} for s in delivered]
        sent = [dict(s) for s in delivered]  # the job dicts are refilled
        threads = [
            threading.Thread(target=rank_main, args=(r,)) for r in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert all(res is not None for res in results), "a rank failed"
        return sent, images, results
    finally:
        for pool in pools:
            pool.close()
        for channel in channels:
            channel.close()


@pytest.mark.parametrize("seed", (None, *CHAOS_SEEDS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_delivered_arrays_stay_untouched_and_replies_rebuild(family, seed):
    case = build_case(family, N, 8192, seed=3)
    plan = None if seed is None else FaultPlan.chaos(seed, N, intensity=0.1)
    sent, images, results = _run_ranks_in_threads(case, plan)
    ref, _ = sim_reference(case, plan)
    assert not ref.degraded

    for rank in range(N):
        for block, value in sent[rank].items():
            assert _image(value) == images[rank][block], (rank, block)

    rebuilt = [rebuild_state(res.state, sent[r]) for r, res in enumerate(results)]
    assert states_equal(rebuilt, ref.state)
    assert sum(res.wire for res in results) == ref.wire
    assert any(res.degraded for res in results) == ref.degraded


def test_ring_reduce_scatter_replies_drop_one_block_in_n():
    # each ring rank folds into n - 1 of its n blocks; the block it sends
    # first is never replaced, so it comes back as a marker
    case = build_case("ring-rs", N, 8192, seed=3)
    _, _, results = _run_ranks_in_threads(case, None)
    for res in results:
        kept = [b for b, v in res.state.items() if v is KEPT]
        assert len(kept) == 1
