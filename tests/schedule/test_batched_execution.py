"""Kernel invocations per collective: one sweep per rank, not one per block.

The homomorphic codec hands each ``prepare`` / ``finalize`` to one
``FZLight`` call and the executor coalesces a rank's adjacent ``prepare``
ops, and its adjacent ``finalize`` / ``finalize_local`` ops, so an hz
collective launches the quantise sweep (its CPR pass) once per rank per
setup and the DPR kernel once per rank per finalize (foreign blocks and
own block in one sweep) — while the DOC baseline keeps C-Coll's one
invocation per block.  A rank's own blocks stay quantised until a comm
sends them, across the fused hand-off too, so the hz encodes
(``FZLight.compress``) are one per packed block set plus one per block no
comm sent, and a ring fold decodes only the stream it received.  Counts
are taken the way the repo benchmark's traced pass takes them: by
wrapping the public kernel entry points.
"""

import time
from collections import Counter

import numpy as np
import pytest

from repro import collectives as C
from repro.compression.fzlight import FZLight
from repro.core.config import CollectiveConfig
from repro.homomorphic.hzdynamic import HZDynamic
from repro.runtime.cluster import SimCluster
from repro.runtime.nodemap import NodeMap
from repro.schedule import (
    HomomorphicCodec,
    ScheduleExecutor,
    pipelined_ring_reduce_scatter,
    rabenseifner_allreduce_schedule,
    ring_reduce_scatter,
)
from repro.schedule.codecs import PayloadCodec

N = 8
CONFIG = CollectiveConfig()
PAIRS = NodeMap(node_of_rank=(0, 0, 1, 1, 2, 2, 3, 3))


def make_data(n=N, size=4099):
    rng = np.random.default_rng(11)
    return [
        np.cumsum(rng.normal(0, 0.02, size)).astype(np.float32) for _ in range(n)
    ]


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Calls per kernel entry point, and wall seconds per clock bucket:
    the quantise sweep and the encodes are both CPR work."""
    calls, seconds = Counter(), Counter()
    targets = (
        (FZLight, "quantise", "quantise", "CPR"),
        (FZLight, "compress", "CPR", "CPR"),
        (FZLight, "decompress", "DPR", "DPR"),
        (HZDynamic, "reduce_fused", "HPR", "HPR"),
    )
    for cls, name, key, bucket in targets:
        original = getattr(cls, name)

        def wrapper(self, *args, _original=original, _key=key,
                    _bucket=bucket, **kwargs):
            calls[_key] += 1
            start = time.perf_counter()
            try:
                return _original(self, *args, **kwargs)
            finally:
                seconds[_bucket] += time.perf_counter() - start

        monkeypatch.setattr(cls, name, wrapper)
    calls.seconds = seconds
    return calls


HZ_ALLREDUCES = {
    # family: (runner, quantise, CPR encodes, HPR, DPR).  Encodes: one per
    # comm that sends a still-quantised block set, plus the run's seal of
    # what no comm sent.
    # ring: n−1 reduce-scatter sends per rank + the allgather's first send
    # of the owned block, handed off quantised; later sends forward
    # streams, and one DPR sweep per rank dequantises the owned block
    "ring": (
        lambda cl, d: C.run(C.FAMILIES["hzccl_allreduce"], cl, d, CONFIG),
        N, N * N, 56, N,
    ),
    # two chunks per ring round: 2·(n−1) sends per rank + one send of
    # both owned chunks
    "pipelined": (
        lambda cl, d: C.run(
            C.FAMILIES["hzccl_pipelined_allreduce"], cl, d, CONFIG, chunks=2
        ),
        N, N * (2 * (N - 1) + 1), 2 * 56, N,
    ),
    # log2 n halving sends per rank + the first doubling send of the
    # owned block; later doublings forward streams
    "rabenseifner": (
        lambda cl, d: C.run(
            C.FAMILIES["hzccl_rabenseifner_allreduce"], cl, d, CONFIG
        ),
        N, N * (3 + 1), 56, N,
    ),
    # 4 non-leaders send their vector; 4 leaders send once per inter-ring
    # reduce-scatter round (3) and once more their owned block
    "hierarchical": (
        lambda cl, d: C.run(
            C.FAMILIES["hzccl_hierarchical_allreduce"], cl, d, CONFIG,
            nodemap=PAIRS,
        ),
        N, 4 + 4 * (3 + 1), 28, N,
    ),
}


@pytest.mark.parametrize("family", sorted(HZ_ALLREDUCES))
def test_hz_allreduce_sweeps_once_per_rank(kernel_calls, family):
    run, quantise, cpr, hpr, dpr = HZ_ALLREDUCES[family]
    data = make_data()
    result = run(SimCluster(N, network=CONFIG.network), data)
    assert not result.degraded
    assert dict(kernel_calls) == {
        "quantise": quantise, "CPR": cpr, "HPR": hpr, "DPR": dpr,
    }
    assert kernel_calls["DPR"] == N
    exact = np.sum(np.stack(data, dtype=np.float64), axis=0)
    for out in result.outputs:
        assert np.abs(out - exact).max() <= N * CONFIG.error_bound * 1.0001


def test_batched_reduce_is_one_sweep_per_rank_and_one_at_the_root(kernel_calls):
    sessions = [make_data(size=1031) for _ in range(5)]
    result = C.run(
        C.FAMILIES["hzccl_batched_reduce"],
        SimCluster(N, network=CONFIG.network), sessions, CONFIG,
    )
    # the n−1 senders code their 5 vectors in one call each; the root folds
    # its own quantised and decodes none of them
    assert dict(kernel_calls) == {
        "quantise": N, "CPR": N - 1, "HPR": 5, "DPR": 1,
    }
    assert len(result.outputs) == 5


def test_rooted_and_bcast_counts(kernel_calls):
    data = make_data()
    C.run(
        C.FAMILIES["hzccl_reduce"], SimCluster(N, network=CONFIG.network),
        data, CONFIG,
    )
    # the fused reduce-scatter's n−1 sends per rank, then each non-root's
    # gather send of its owned block, handed off quantised; the root codes
    # its own not at all and dequantises it in its one DPR sweep
    assert dict(kernel_calls) == {
        "quantise": N, "CPR": N * N - 1, "HPR": 56, "DPR": 1,
    }
    kernel_calls.clear()
    C.run(
        C.FAMILIES["compressed_bcast"], SimCluster(N, network=CONFIG.network),
        data[0], CONFIG,
    )
    assert dict(kernel_calls) == {"CPR": 1, "DPR": N - 1}


def test_doc_baseline_stays_one_invocation_per_block(kernel_calls):
    """C-Coll's discipline is per-block: the baseline must not get faster
    by riding the sweep.  Reduce-scatter packs one block per rank per
    round (n·(n−1) CPR, as many DPR); the allgather compresses each
    rank's block once (n) and decodes every foreign block alone
    (n·(n−1))."""
    data = make_data()
    result = C.run(
        C.FAMILIES["ccoll_allreduce"], SimCluster(N, network=CONFIG.network),
        data, CONFIG,
    )
    assert not result.degraded
    assert dict(kernel_calls) == {
        "CPR": N * (N - 1) + N,
        "DPR": 2 * N * (N - 1),
    }
    kernel_calls.clear()
    C.run(
        C.FAMILIES["ccoll_reduce_scatter"],
        SimCluster(N, network=CONFIG.network), data, CONFIG,
    )
    assert dict(kernel_calls) == {"CPR": N * (N - 1), "DPR": N * (N - 1)}


class ChargeLog(SimCluster):
    """A cluster that remembers every compute charge it was handed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.charges: list[tuple[int, str, float]] = []

    def charge_compute(self, rank, bucket, seconds):
        self.charges.append((rank, bucket, seconds))
        super().charge_compute(rank, bucket, seconds)


def test_clock_buckets_charged_once_per_rank_per_phase(kernel_calls):
    cluster = ChargeLog(N, network=CONFIG.network)
    result = C.run(C.FAMILIES["hzccl_allreduce"], cluster, make_data(), CONFIG)
    per_rank = Counter((rank, bucket) for rank, bucket, _ in cluster.charges)
    for rank in range(N):
        # the setup sweep, n−1 sends and the allgather's send of the
        # owned block
        assert per_rank[rank, "CPR"] == 1 + N
        assert per_rank[rank, "DPR"] == 1  # foreign blocks + own block
        assert per_rank[rank, "HPR"] == N - 1  # one fold per ring round
    # a charge is the wall time of its kernel call plus the codec's list
    # building around it: never less, and not noticeably more
    for bucket in ("CPR", "DPR", "HPR"):
        charged = sum(s for _, b, s in cluster.charges if b == bucket)
        measured = kernel_calls.seconds[bucket]
        assert measured <= charged <= measured + 0.005
        # and the rank-averaged breakdown the caller sees is those charges
        assert result.breakdown.buckets[bucket] == pytest.approx(charged / N)


class RecordingCodec(PayloadCodec):
    """Plain wire, but remembers what ``prepare`` was asked to encode."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.prepared: list[tuple[int, tuple]] = []

    def prepare(self, rank, blocks, state):
        self.prepared.append((rank, tuple(blocks)))

    def fold(self, rank, blocks, items, state):
        for b, item in zip(blocks, items):
            state[rank][b] = state[rank][b] + item


SETUPS = {
    "ring": (ring_reduce_scatter(N), list(range(N))),
    "pipelined": (
        pipelined_ring_reduce_scatter(N, 2),
        [(b, c) for b in range(N) for c in range(2)],
    ),
    "rabenseifner": (rabenseifner_allreduce_schedule(N), list(range(N))),
}


@pytest.mark.parametrize("family", sorted(SETUPS))
def test_executor_coalesces_a_ranks_adjacent_prepares(family):
    """One ``prepare`` per rank carrying every block, in schedule order —
    while the schedule itself still itemises them (the cost model's view)."""
    schedule, blocks = SETUPS[family]
    setup_ops = [
        op for op in schedule.phases[0].rounds[0].ops if op.kind == "prepare"
    ]
    assert len(setup_ops) == N * len(blocks)  # the IR is untouched
    cluster = SimCluster(N, network=CONFIG.network)
    codec = RecordingCodec(cluster)
    state = [{b: np.ones(4, dtype=np.float32) for b in blocks} for _ in range(N)]
    ScheduleExecutor(cluster, codec).run(schedule, state)
    assert codec.prepared == [(rank, tuple(blocks)) for rank in range(N)]


def test_rank_filtered_locals_coalesce_too():
    """An executor playing one rank (an MP worker's shape) runs the same
    loop: that rank's prepares, coalesced, and nobody else's."""
    from repro.schedule.ir import Schedule

    cluster = SimCluster(N, network=CONFIG.network)
    codec = RecordingCodec(cluster)
    setup_only = Schedule(
        "setup-only", N, phases=ring_reduce_scatter(N).phases[:1]
    )
    state = [None] * N
    state[3] = {}
    outcome = ScheduleExecutor(cluster, codec, rank=3).run(setup_only, state)
    assert codec.prepared == [(3, tuple(range(N)))]
    assert not outcome.degraded


def test_coalescing_never_crosses_ranks_or_kinds():
    from repro.schedule.ir import LocalOp

    cluster = SimCluster(2, network=CONFIG.network)
    codec = RecordingCodec(cluster)
    finalized = []
    codec.finalize = lambda rank, blocks, state: finalized.append((rank, blocks))
    ops = (
        LocalOp(0, "prepare", ("a",)),
        LocalOp(1, "prepare", ("a",)),
        LocalOp(1, "prepare", ("b", "c")),
        LocalOp(1, "finalize", ("a",)),
        LocalOp(1, "prepare", ("d",)),
        LocalOp(0, "prepare", ("b",)),
    )
    ScheduleExecutor(cluster, codec)._locals(ops, [{}, {}], {})
    assert codec.prepared == [
        (0, ("a",)), (1, ("a", "b", "c")), (1, ("d",)), (0, ("b",)),
    ]
    assert finalized == [(1, ("a",))]


def test_sweep_codec_state_matches_per_block_calls():
    """The codec's one-call prepare/finalize leave exactly the state the
    per-block calls left (coded fields byte-identical, decodes
    bit-identical)."""
    cluster = SimCluster(2, network=CONFIG.network)
    codec = HomomorphicCodec(cluster, CONFIG)
    rng = np.random.default_rng(2)
    blocks = {
        b: rng.normal(0, 1, n).astype(np.float32)
        for b, n in enumerate([513, 512, 512, 40])
    }
    state = [dict(blocks), {}]
    codec.prepare(0, tuple(blocks), state)
    for b, data in blocks.items():
        alone = codec.comp.compress(data, abs_eb=CONFIG.error_bound)
        assert codec.comp.compress(state[0][b]).to_bytes() == alone.to_bytes()
    fields = dict(state[0])
    codec.finalize(0, (3, 0, 2), state)
    for b in (3, 0, 2):
        np.testing.assert_array_equal(
            state[0][b], codec.comp.decompress(fields[b])
        )
    assert state[0][1] is fields[1]  # not named, not touched


def test_a_ring_fold_decodes_only_the_stream_it_received(monkeypatch):
    """Ring reduce-scatter with finalize: each of a rank's n−1 folds runs
    one decode pass (the received stream; the own partial is quantised),
    the finalize dequantises without decoding, and a rank codes only the
    n−1 partials it sends."""
    from repro.kernels import numpy_backend, use_backend

    decodes = Counter()
    decode_grouped = numpy_backend._decode_grouped

    def counting(*args, **kwargs):
        decodes["all"] += 1
        return decode_grouped(*args, **kwargs)

    monkeypatch.setattr(numpy_backend, "_decode_grouped", counting)
    per_fold = []
    reduce_fused = HZDynamic.reduce_fused

    def fold(self, *args, **kwargs):
        before = decodes["all"]
        try:
            return reduce_fused(self, *args, **kwargs)
        finally:
            per_fold.append(decodes["all"] - before)

    monkeypatch.setattr(HZDynamic, "reduce_fused", fold)
    cluster = ChargeLog(N, network=CONFIG.network)
    with use_backend("numpy"):
        result = C.run(
            C.FAMILIES["hzccl_reduce_scatter"], cluster, make_data(), CONFIG
        )
    assert not result.degraded
    assert per_fold == [1] * (N * (N - 1))
    assert decodes["all"] == N * (N - 1)  # none at the finalize
    per_rank = Counter((rank, bucket) for rank, bucket, _ in cluster.charges)
    for rank in range(N):
        assert per_rank[rank, "CPR"] == 1 + (N - 1)  # sweep + sends
        assert per_rank[rank, "HPR"] == N - 1
        assert per_rank[rank, "DPR"] == 1
