"""Each rank decodes every gathered block once, straight into its result.

The fused reduce-scatter hands its owned blocks to the compressed gather
still quantised: the gather codes one on its first send, and a rank's
finalize decodes the foreign streams and dequantises its own block in one
``FZLight.decompress`` call, into the vector the collective returns.  So
the outputs of ``hzccl_allreduce``, ``hzccl_reduce`` and
``hzccl_pipelined_allreduce`` must be bit-identical to the sealed path's
oracle — run the reduce-scatter as a public row (its outputs coded), then
decompress every stream alone and concatenate — over uneven block
lengths, dense and quiet data, and a gather forced to fall back (its
plain rerun starts from the quantised hand-off, decoded locally).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import FAMILIES, interpreter, run
from repro.compression.format import CompressedField, QuantisedField
from repro.compression.fzlight import FZLight
from repro.core.config import CollectiveConfig
from repro.runtime import FaultPlan, SimCluster
from repro.runtime.topology import Ring
from repro.schedule.codecs import HomomorphicCodec

CONFIG = CollectiveConfig(error_bound=1e-3)
COMP = FZLight(
    block_size=CONFIG.block_size, n_threadblocks=CONFIG.n_threadblocks
)
#: every compressed delivery fails validation on every attempt
FORCED = FaultPlan(seed=7, corrupt_rate=1.0)
EXAMPLES = settings(max_examples=12, deadline=None)


def make_data(kind: str, n: int, size: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return [
            np.cumsum(rng.normal(0, 0.02, size)).astype(np.float32)
            for _ in range(n)
        ]
    arrays = []
    for _ in range(n):
        a = np.zeros(size, dtype=np.float32)
        lo = int(rng.integers(0, size // 2))
        a[lo : lo + size // 4] = rng.normal(0, 1, size // 4)
        arrays.append(a)
    return arrays


def oracle(data, chunks: int | None = None) -> np.ndarray:
    """Every reduced block, coded by a sealed reduce-scatter, decompressed
    alone and concatenated in block-id order."""
    n = len(data)
    ring, side = Ring(n), SimCluster(n)
    if chunks is None:
        sealed = run(
            FAMILIES["hzccl_reduce_scatter_fused"], side, data, CONFIG
        ).outputs
        streams = {ring.owned_block(i): [s] for i, s in enumerate(sealed)}
    else:
        sealed = run(
            FAMILIES["pipelined_reduce_scatter"], side, data, CONFIG,
            chunks=chunks,
        ).outputs
        streams = {ring.owned_block(i): s for i, s in enumerate(sealed)}
    assert all(
        isinstance(s, CompressedField) for part in streams.values() for s in part
    )
    return np.concatenate(
        [COMP.decompress(s) for b in sorted(streams) for s in streams[b]]
    )


def force_the_gather(monkeypatch) -> None:
    """Healthy reduce-scatter, then every compressed delivery of the
    stage that takes compressed input fails."""
    run_stage = interpreter._run_stage

    def forced(family, cluster, *args, **kwargs):
        if family.compressed_input:
            cluster.faults, cluster._channel = FORCED, None
        return run_stage(family, cluster, *args, **kwargs)

    monkeypatch.setattr(interpreter, "_run_stage", forced)


def assert_private(outputs, data) -> None:
    """No output shares memory with an input or with another output."""
    outs = [o for o in outputs if o is not None]
    for i, out in enumerate(outs):
        assert not any(np.shares_memory(out, a) for a in data)
        assert not any(np.shares_memory(out, o) for o in outs[i + 1 :])


cases = st.tuples(
    st.sampled_from((2, 3, 4, 5, 8)),
    st.integers(24, 400),
    st.sampled_from(("dense", "quiet")),
    st.integers(0, 2**16),
)


def uneven(n: int, per_rank: int, seed: int) -> int:
    """A length ``n`` does not divide: the blocks differ in length."""
    return n * per_rank + 1 + seed % (n - 1) if n > 1 else per_rank


class TestBitIdentity:
    @EXAMPLES
    @given(cases)
    def test_allreduce_is_the_sealed_oracle(self, case):
        n, per_rank, kind, seed = case
        data = make_data(kind, n, uneven(n, per_rank, seed), seed)
        result = run(FAMILIES["hzccl_allreduce"], SimCluster(n), data, CONFIG)
        assert not result.degraded
        expected = oracle(data)
        for out in result.outputs:
            np.testing.assert_array_equal(out, expected)
        assert_private(result.outputs, data)

    @EXAMPLES
    @given(cases, st.booleans())
    def test_reduce_is_the_sealed_oracle_at_the_root(self, case, last):
        n, per_rank, kind, seed = case
        root = n - 1 if last else 0
        data = make_data(kind, n, uneven(n, per_rank, seed), seed)
        result = run(
            FAMILIES["hzccl_reduce"], SimCluster(n), data, CONFIG, root=root
        )
        assert not result.degraded
        np.testing.assert_array_equal(result.outputs[root], oracle(data))
        assert all(
            out is None for i, out in enumerate(result.outputs) if i != root
        )
        assert_private(result.outputs, data)

    @EXAMPLES
    @given(cases)
    def test_pipelined_allreduce_is_the_sealed_oracle(self, case):
        n, per_rank, kind, seed = case
        data = make_data(kind, n, uneven(n, per_rank, seed), seed)
        result = run(
            FAMILIES["hzccl_pipelined_allreduce"], SimCluster(n), data,
            CONFIG, chunks=2,
        )
        assert not result.degraded
        expected = oracle(data, chunks=2)
        for out in result.outputs:
            np.testing.assert_array_equal(out, expected)
        assert_private(result.outputs, data)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("kind", ["dense", "quiet"])
def test_a_forced_allgather_decodes_the_hand_off_locally(monkeypatch, n, kind):
    """The plain rerun forwards each owner's dequantised block, which is
    what decoding its sealed stream gives."""
    data = make_data(kind, n, uneven(n, 97, n), n)
    expected = oracle(data)
    force_the_gather(monkeypatch)
    result = run(FAMILIES["hzccl_allreduce"], SimCluster(n), data, CONFIG)
    assert result.degraded
    for out in result.outputs:
        np.testing.assert_array_equal(out, expected)
    assert_private(result.outputs, data)


@pytest.mark.parametrize("root", [0, 2])
def test_a_forced_rooted_gather_decodes_the_hand_off_locally(
    monkeypatch, root
):
    data = make_data("dense", 4, uneven(4, 97, 1), 3)
    expected = oracle(data)
    force_the_gather(monkeypatch)
    result = run(
        FAMILIES["hzccl_reduce"], SimCluster(4), data, CONFIG, root=root
    )
    assert result.degraded
    np.testing.assert_array_equal(result.outputs[root], expected)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_each_rank_decodes_every_foreign_block_once_and_its_own_never(
    monkeypatch, n
):
    """Per hz allreduce: one ``decompress`` call per rank (its finalize
    and finalize_local ops reach the codec as one call), n − 1 stream
    decodes in it, and the own block dequantised, not decoded."""
    calls, finalized = [], []
    decompress, finalize = FZLight.decompress, HomomorphicCodec.finalize

    def spy_decompress(self, compressed, *args, **kwargs):
        members = list(compressed)
        calls.append(
            (
                sum(isinstance(f, CompressedField) for f in members),
                sum(isinstance(f, QuantisedField) for f in members),
            )
        )
        return decompress(self, compressed, *args, **kwargs)

    def spy_finalize(self, rank, blocks, state):
        finalized.append((rank, tuple(sorted(blocks))))
        held = {b for b in blocks if isinstance(state[rank][b], QuantisedField)}
        assert held == {Ring(n).owned_block(rank)}
        return finalize(self, rank, blocks, state)

    monkeypatch.setattr(FZLight, "decompress", spy_decompress)
    monkeypatch.setattr(HomomorphicCodec, "finalize", spy_finalize)
    monkeypatch.setattr(
        HomomorphicCodec, "finalize_local",
        lambda *args: pytest.fail("finalize_local ran apart from finalize"),
    )
    data = make_data("dense", n, uneven(n, 200, 5), 5)
    result = run(FAMILIES["hzccl_allreduce"], SimCluster(n), data, CONFIG)
    assert not result.degraded
    assert sorted(finalized) == [(i, tuple(range(n))) for i in range(n)]
    assert calls == [(n - 1, 1)] * n
    assert sum(decoded for decoded, _ in calls) == n * (n - 1)


def test_a_decoded_result_is_returned_without_a_copy():
    """The gather returns the vector the finalize decoded into: each
    rank's output is that whole vector, not a concatenation of it."""
    data = make_data("dense", 4, 4 * 300 + 3, 9)
    result = run(FAMILIES["hzccl_allreduce"], SimCluster(4), data, CONFIG)
    for out in result.outputs:
        assert out.base is None and out.flags.owndata
        assert out.dtype == np.float32 and out.shape == data[0].shape


def test_plain_and_doc_rows_still_concatenate():
    """Blocks that are views of the input (one rank: nothing moves) are
    copied, never returned as the input's memory."""
    data = make_data("dense", 1, 500, 2)
    for name in ("mpi_allreduce", "ccoll_allreduce", "hzccl_allreduce"):
        out = run(FAMILIES[name], SimCluster(1), data, CONFIG).outputs[0]
        assert not np.shares_memory(out, data[0])
        np.testing.assert_allclose(out, data[0], atol=CONFIG.error_bound)


def test_decompress_into_out_matches_the_plain_call():
    rng = np.random.default_rng(4)
    arrays = [
        np.cumsum(rng.normal(0, 0.02, m)).astype(np.float32)
        for m in (513, 513, 512, 40, 70_000)
    ]
    fields = [COMP.compress(a, abs_eb=1e-3) for a in arrays[:3]]
    fields += [COMP.quantise(a, abs_eb=1e-3) for a in arrays[3:]]
    # members of one geometry apart in the caller's order (513, 512, 513)
    order = [0, 2, 1, 3, 4]
    members = [fields[i] for i in order]
    out = np.full(sum(f.n for f in members), np.nan, dtype=np.float32)
    placed = COMP.decompress(members, out=out)
    expected = COMP.decompress(members)
    np.testing.assert_array_equal(out, np.concatenate(expected))
    for got, want in zip(placed, expected):
        np.testing.assert_array_equal(got, want)
        assert got.base is out
    lone = np.empty(fields[0].n, dtype=np.float32)
    assert COMP.decompress(fields[0], out=lone).base is lone
    np.testing.assert_array_equal(lone, COMP.decompress(fields[0]))


@pytest.mark.parametrize(
    "bad",
    [
        np.empty(10, dtype=np.float32),
        np.empty(513, dtype=np.float64),
        np.empty((1, 513), dtype=np.float32),
        np.empty(1026, dtype=np.float32)[::2],
    ],
)
def test_decompress_refuses_an_out_of_the_wrong_shape(bad):
    field = COMP.compress(np.ones(513, dtype=np.float32), abs_eb=1e-3)
    with pytest.raises(ValueError, match="out must be"):
        COMP.decompress(field, out=bad)


def test_a_fold_drops_the_stream_recorded_for_its_block():
    """A send codes a quantised block once and records the stream; a fold
    into that block changes it, so the next send codes it afresh."""
    cluster = SimCluster(2)
    codec = HomomorphicCodec(cluster, CONFIG)
    rng = np.random.default_rng(8)
    a, b = (np.cumsum(rng.normal(0, 0.02, 700)).astype(np.float32) for _ in "ab")
    state = [{0: a}, {}]
    codec.prepare(0, (0,), state)
    (first,) = codec.pack(0, (0,), state)
    (again,) = codec.pack(0, (0,), state)
    assert again is first and isinstance(state[0][0], QuantisedField)
    codec.fold(0, (0,), (COMP.compress(b, abs_eb=CONFIG.error_bound),), state)
    (folded,) = codec.pack(0, (0,), state)
    assert folded is not first
    assert folded.to_bytes() == COMP.compress(state[0][0]).to_bytes()
    codec.seal(0, state)
    assert state[0][0] is folded
