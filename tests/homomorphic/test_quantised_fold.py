"""Property-based contracts for quantised operands (a rank's own blocks).

A collective keeps a rank's own blocks as :class:`QuantisedField` — the
deltas an encode would code — until a comm sends them.  That is only an
execution shortcut if it can never be told apart from the stream path:

1. ``compress(quantise(x))`` is byte-identical to ``compress(x)``, and
   ``decompress(quantise(x))`` bit-identical to ``decompress(compress(x))``;
2. folding streams into a quantised operand and coding the sum gives the
   stream — and the ``PipelineStats`` — of ``reduce_fused`` over the same
   operands all as streams, for any operand position, weights, block
   activity and cancellation;
3. the int32 → int64 widening holds at the edge of int32, and a sum that
   no longer fits 32 bits raises where the stream fold raises;
4. a quantised operand folds with weight 1 only, one per fold, in place.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.format import QuantisedField
from repro.compression import fzlight
from repro.compression.fzlight import FZLight
from repro.homomorphic.hzdynamic import HZDynamic

EB = 1e-3
COMP = FZLight(block_size=8, n_threadblocks=3)
KINDS = ("dense", "quiet", "constant", "cancelling")


def _arrays(seed: int, k: int, n: int, kind: str) -> list[np.ndarray]:
    """k float32 operands: random walks, mostly-zero fields, constants, or
    pairs that cancel block for block."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return [
            np.cumsum(rng.normal(0, 20 * EB, n)).astype(np.float32)
            for _ in range(k)
        ]
    if kind == "quiet":
        out = []
        for _ in range(k):
            data = np.zeros(n, dtype=np.float32)
            hot = rng.integers(0, n, max(1, n // 20))
            data[hot] = rng.normal(0, 50 * EB, hot.size)
            out.append(data)
        return out
    if kind == "constant":
        return [np.full(n, rng.normal(), dtype=np.float32) for _ in range(k)]
    base = np.cumsum(rng.normal(0, 20 * EB, n)).astype(np.float32)
    return [base if j % 2 == 0 else -base for j in range(k)]


def _stats(engine: HZDynamic) -> tuple:
    s = engine.stats
    return (
        s.counts.tolist(), s.kway.tolist(), s.fused_calls, s.fused_operands
    )


class TestQuantiseIsCompressMinusCoding:
    @given(
        seed=st.integers(0, 2**31),
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=4),
        kind=st.sampled_from(KINDS),
    )
    @settings(max_examples=50, deadline=None)
    def test_compress_of_quantised_is_byte_identical(self, seed, sizes, kind):
        arrays = [
            _arrays(seed + i, 1, n, kind)[0] for i, n in enumerate(sizes)
        ]
        held = COMP.quantise(arrays, abs_eb=EB)
        direct = COMP.compress(arrays, abs_eb=EB)
        coded = COMP.compress(held)
        assert [f.to_bytes() for f in coded] == [f.to_bytes() for f in direct]
        for x, q, f in zip(arrays, held, direct):
            assert COMP.compress(q).to_bytes() == f.to_bytes()
            assert COMP.compress(x, abs_eb=EB).to_bytes() == f.to_bytes()

    @given(
        seed=st.integers(0, 2**31),
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=4),
        kind=st.sampled_from(KINDS),
    )
    @settings(max_examples=50, deadline=None)
    def test_decompress_of_quantised_is_bit_identical(self, seed, sizes, kind):
        arrays = [
            _arrays(seed + i, 1, n, kind)[0] for i, n in enumerate(sizes)
        ]
        held = COMP.quantise(arrays, abs_eb=EB)
        expected = COMP.decompress(COMP.compress(arrays, abs_eb=EB))
        for got, want in zip(COMP.decompress(held), expected):
            np.testing.assert_array_equal(got, want)
        for q, want in zip(held, expected):
            np.testing.assert_array_equal(COMP.decompress(q), want)

    def test_members_own_their_deltas(self):
        """Neither each other's memory nor the arena's: a later sweep
        leaves a held block untouched, and folding one leaves the others."""
        rng = np.random.default_rng(3)
        arrays = [rng.normal(0, 1, 100).astype(np.float32) for _ in range(3)]
        held = COMP.quantise(arrays, abs_eb=EB)
        before = [q.deltas.copy() for q in held]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.shares_memory(held[a].deltas, held[b].deltas)
        COMP.compress([a * 3 for a in arrays], abs_eb=EB)
        COMP.decompress(COMP.compress(arrays, abs_eb=EB))
        stream = COMP.compress(arrays[1], abs_eb=EB)
        HZDynamic().reduce_fused((held[0], stream))
        for q, copy in zip(held[1:], before[1:]):
            np.testing.assert_array_equal(q.deltas, copy)


    def test_a_released_burst_leaves_a_bounded_pool_that_is_reused(self):
        """More live fields than the grid pool keeps: the pool never grows
        past its cap, and once the burst is released the next quantise
        takes a kept grid instead of a new one."""
        rng = np.random.default_rng(4)
        arrays = [rng.normal(0, 1, 512).astype(np.float32) for _ in range(3)]
        burst = [
            COMP.quantise(arrays[0], abs_eb=EB)
            for _ in range(3 * fzlight._KEPT_GRIDS)
        ]
        assert len(fzlight._KEPT) <= fzlight._KEPT_GRIDS
        del burst
        assert len(fzlight._KEPT) <= fzlight._KEPT_GRIDS
        held = COMP.quantise(arrays[1], abs_eb=EB)
        assert any(np.shares_memory(held.deltas, grid) for grid in fzlight._KEPT)


class TestQuantisedFold:
    @given(
        seed=st.integers(0, 2**31),
        k=st.sampled_from((2, 3, 5)),
        position=st.integers(0, 4),
        n=st.integers(17, 240),
        kind=st.sampled_from(KINDS),
        weighted=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_all_stream_fold(
        self, seed, k, position, n, kind, weighted
    ):
        p = position % k
        arrays = _arrays(seed, k, n, kind)
        weights = None
        if weighted:
            rng = np.random.default_rng(seed)
            weights = [int(w) for w in rng.integers(-3, 4, k)]
            weights[p] = 1
        streams = COMP.compress(arrays, abs_eb=EB)
        reference = HZDynamic()
        expected = reference.reduce_fused(streams, weights)
        operands = list(streams)
        operands[p] = COMP.quantise(arrays[p], abs_eb=EB)
        engine = HZDynamic()
        folded = engine.reduce_fused(operands, weights)
        assert isinstance(folded, QuantisedField)
        assert COMP.compress(folded).to_bytes() == expected.to_bytes()
        np.testing.assert_array_equal(
            COMP.decompress(folded), COMP.decompress(expected)
        )
        assert _stats(engine) == _stats(reference)

    def test_the_fold_is_in_place(self):
        arrays = _arrays(5, 2, 200, "dense")
        own = COMP.quantise(arrays[0], abs_eb=EB)
        folded = HZDynamic().reduce_fused(
            (own, COMP.compress(arrays[1], abs_eb=EB))
        )
        assert folded.deltas is own.deltas

    def test_without_statistics_the_bytes_are_the_same(self):
        arrays = _arrays(6, 3, 200, "quiet")
        streams = COMP.compress(arrays, abs_eb=EB)
        expected = HZDynamic().reduce_fused(streams)
        folded = HZDynamic(collect_stats=False).reduce_fused(
            (streams[0], COMP.quantise(arrays[1], abs_eb=EB), streams[2])
        )
        assert COMP.compress(folded).to_bytes() == expected.to_bytes()


class TestWidening:
    """eb = 0.5 makes the codes the data itself, so deltas can be put at
    the edge of int32 exactly."""

    COMP = FZLight(block_size=8, n_threadblocks=1)
    #: the largest multiple of 64 below 2**30: a float32, and a code
    #: magnitude that still quantises to int32
    A = 2**30 - 64

    def _fold_both_ways(self, own: np.ndarray, other: np.ndarray):
        comp = self.COMP
        streams = comp.compress([own, other], abs_eb=0.5)
        held = comp.quantise(own, abs_eb=0.5)
        assert held.deltas.dtype == np.int32
        expected = HZDynamic().reduce_fused(streams)
        folded = HZDynamic().reduce_fused((held, streams[1]))
        assert comp.compress(folded).to_bytes() == expected.to_bytes()
        return held, folded

    @pytest.mark.parametrize("sign", (1, -1))
    def test_a_sum_past_int32_widens(self, sign):
        # deltas of ±(2**31 − 128) in each operand: the sum needs 32 bits
        saw = np.array([0, self.A, -self.A] * 6, dtype=np.float32) * sign
        held, folded = self._fold_both_ways(saw, saw)
        assert folded.deltas.dtype == np.int64
        peak = int(np.abs(folded.deltas).max())
        assert 2**31 <= peak < 2**32

    def test_a_sum_inside_int32_stays_int32_in_place(self):
        small = np.array([0, 2**28, -(2**28)] * 6, dtype=np.float32)
        held, folded = self._fold_both_ways(small, small * 0.25)
        assert folded.deltas.dtype == np.int32
        assert folded.deltas is held.deltas

    def test_a_widened_member_shares_a_batch_with_int32_ones(self):
        comp = self.COMP
        saw = np.array([0, self.A, -self.A] * 6, dtype=np.float32)
        stream = comp.compress(saw, abs_eb=0.5)
        widened = HZDynamic().reduce_fused(
            (comp.quantise(saw, abs_eb=0.5), stream)
        )
        narrow = comp.quantise(saw * 0.5, abs_eb=0.5)
        assert (widened.deltas.dtype, narrow.deltas.dtype) == (
            np.int64, np.int32,
        )
        expected = [
            HZDynamic().reduce_fused((stream, stream)),
            comp.compress(saw * 0.5, abs_eb=0.5),
        ]
        coded = comp.compress([widened, narrow])
        assert [f.to_bytes() for f in coded] == [
            f.to_bytes() for f in expected
        ]
        for got, want in zip(comp.decompress([widened, narrow]), expected):
            np.testing.assert_array_equal(got, comp.decompress(want))

    def test_a_sum_past_32_bits_raises_like_the_stream_fold(self):
        # deltas of ±(2**32 − 256) code alone; twice that does not
        big = np.array([0, 2**31 - 128, 128 - 2**31] * 6, dtype=np.float32)
        comp = self.COMP
        streams = comp.compress([big, big], abs_eb=0.5)
        with pytest.raises(OverflowError):
            HZDynamic().reduce_fused(streams)
        with pytest.raises(OverflowError):
            HZDynamic().reduce_fused(
                (comp.quantise(big, abs_eb=0.5), streams[1])
            )

    def test_quantise_raises_where_compress_raises(self):
        huge = np.array([0, 2**33, -(2**33)] * 6, dtype=np.float32)
        with pytest.raises(OverflowError):
            self.COMP.compress(huge, abs_eb=0.5)
        with pytest.raises(OverflowError):
            self.COMP.quantise(huge, abs_eb=0.5)


class TestContract:
    def _operands(self):
        arrays = _arrays(9, 3, 120, "dense")
        return arrays, COMP.compress(arrays, abs_eb=EB)

    @pytest.mark.parametrize("weight", (0, -1, 2))
    def test_a_quantised_operand_with_weight_other_than_one_raises(
        self, weight
    ):
        arrays, streams = self._operands()
        held = COMP.quantise(arrays[0], abs_eb=EB)
        with pytest.raises(ValueError, match="weight 1"):
            HZDynamic().reduce_fused(
                (held, streams[1], streams[2]), weights=(weight, 1, 1)
            )

    def test_two_quantised_operands_raise(self):
        arrays, streams = self._operands()
        held = COMP.quantise(arrays[:2], abs_eb=EB)
        with pytest.raises(ValueError, match="at most one quantised"):
            HZDynamic().reduce_fused((held[0], held[1], streams[2]))

    def test_incompatible_operands_raise(self):
        arrays, streams = self._operands()
        held = COMP.quantise(arrays[0], abs_eb=2 * EB)
        with pytest.raises(ValueError, match="compatible"):
            HZDynamic().reduce_fused((held, streams[1]))

    def test_a_lone_quantised_operand_is_returned(self):
        arrays, _ = self._operands()
        held = COMP.quantise(arrays[0], abs_eb=EB)
        assert HZDynamic().reduce_fused((held,)) is held

    def test_an_error_bound_with_quantised_input_raises(self):
        arrays, _ = self._operands()
        with pytest.raises(ValueError, match="error bound"):
            COMP.compress(COMP.quantise(arrays[0], abs_eb=EB), abs_eb=EB)
