"""Scratch-arena semantics: reuse, growth, isolation, no stale leakage."""

import threading

import numpy as np

from repro.kernels.arena import ScratchArena, get_arena


class TestTake:
    def test_shape_and_dtype(self):
        a = ScratchArena()
        v = a.take("x", (3, 4), np.int64)
        assert v.shape == (3, 4) and v.dtype == np.int64

    def test_scalar_shape(self):
        a = ScratchArena()
        assert a.take("x", 5).shape == (5,)

    def test_same_tag_reuses_buffer(self):
        a = ScratchArena()
        v1 = a.take("x", 64)
        v2 = a.take("x", 64)
        assert v1.base is v2.base  # same backing allocation, no realloc

    def test_distinct_tags_do_not_alias(self):
        a = ScratchArena()
        x = a.take("x", 8, np.int64)
        y = a.take("y", 8, np.int64)
        x[...] = 1
        y[...] = 2
        assert x.sum() == 8 and y.sum() == 16

    def test_growth_preserves_no_stale_reads_when_zeroed(self):
        a = ScratchArena()
        v = a.take("x", 4, np.int64, zero=True)
        v[...] = 7
        # larger request grows the buffer; zero=True must clear all of it
        v2 = a.take("x", 16, np.int64, zero=True)
        assert v2.shape == (16,)
        assert not v2.any()

    def test_growth_is_geometric(self):
        a = ScratchArena()
        a.take("x", 100)
        first = a.nbytes
        a.take("x", 101)  # +1 byte must not realloc to 101
        assert a.nbytes >= 2 * first

    def test_smaller_request_does_not_shrink(self):
        a = ScratchArena()
        a.take("x", 100)
        cap = a.nbytes
        v = a.take("x", 10)
        assert v.shape == (10,) and a.nbytes == cap

    def test_clear_releases(self):
        a = ScratchArena()
        a.take("x", 100)
        a.clear()
        assert a.nbytes == 0 and a.tags == ()

    def test_rejects_negative_dims(self):
        a = ScratchArena()
        try:
            a.take("x", (2, -1))
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("negative dim accepted")


class TestViewMemo:
    """One view per (tag, shape, dtype), dropped with the buffer it was on."""

    def test_same_request_returns_the_same_view(self):
        a = ScratchArena()
        v = a.take("x", (4, 8), np.int32)
        assert a.take("x", (4, 8), np.int32) is v
        assert a.take("x", (8, 4), np.int32) is not v
        assert a.take("x", (4, 8), np.uint32) is not v
        assert a.take("y", (4, 8), np.int32) is not v

    def test_view_taken_before_growth_is_never_handed_out_again(self):
        a = ScratchArena()
        old = a.take("x", 16, np.int64)
        other = a.take("y", 16, np.int64)
        a.take("x", 1024, np.int64)  # replaces x's buffer
        new = a.take("x", 16, np.int64)
        assert new is not old
        assert not np.shares_memory(new, old)
        assert np.shares_memory(new, a.take("x", 1024, np.int64))
        assert a.take("y", 16, np.int64) is other  # other tags keep theirs

    def test_clear_drops_views_with_the_buffers(self):
        a = ScratchArena()
        old = a.take("x", 16)
        a.clear()
        new = a.take("x", 16)
        assert new is not old and not np.shares_memory(new, old)

    def test_zero_clears_a_memoised_view(self):
        a = ScratchArena()
        v = a.take("x", 8, np.int64, zero=True)
        v[...] = 7
        again = a.take("x", 8, np.int64, zero=True)
        assert again is v and not again.any()
        v[...] = 7
        assert a.take("x", 8, np.int64).sum() == 56  # zero=False leaves it be

    def test_narrow_and_wide_folds_keep_the_buffers_flat(self):
        """An int32 fold reads the engine's int64 accumulator as int32 and
        takes its decode scratch under the int64 fold's tag: interleaving
        100 of each after one warm-up adds no buffer, no tag and no byte."""
        from repro.compression.format import CompressedField
        from repro.compression.fzlight import FZLight
        from repro.homomorphic.hzdynamic import HZDynamic
        from repro.kernels.numpy_backend import encode_with_offsets

        rng = np.random.default_rng(4)
        comp = FZLight(block_size=32, n_threadblocks=18)
        narrow = comp.compress(
            [np.cumsum(rng.normal(0, 0.02, 4096)).astype(np.float32) for _ in range(2)],
            abs_eb=1e-4,
        )
        wide = []
        for c in (31, 1):  # 2**31 - 1 + 1: one past the int32 limit
            deltas = rng.integers(-(2**c) + 1, 2**c, size=(128, 32))
            deltas[:, 0] = 2**c - 1
            lens, payload, _ = encode_with_offsets(deltas, 32)
            wide.append(
                CompressedField(
                    n=deltas.size, error_bound=1e-3, block_size=32,
                    n_threadblocks=1, outliers=np.zeros(1, dtype=np.int64),
                    code_lengths=lens, payload=payload,
                )
            )
        engine = HZDynamic()
        arena = get_arena()
        arena.clear()
        warm = [engine.reduce_fused(pair).to_bytes() for pair in (narrow, wide)]
        assert max(engine.reduce_fused(wide).code_lengths) == 32
        baseline = (arena.allocations, arena.tags, arena.nbytes)
        for _ in range(100):
            for pair, expected in zip((narrow, wide), warm):
                assert engine.reduce_fused(pair).to_bytes() == expected
        assert (arena.allocations, arena.tags, arena.nbytes) == baseline

    def test_memo_is_bounded(self):
        from repro.kernels.arena import VIEW_MEMO_ENTRIES

        a = ScratchArena()
        a.take("x", 2 * VIEW_MEMO_ENTRIES + 10)
        for n in range(1, 2 * VIEW_MEMO_ENTRIES + 10):
            a.take("x", n)
        assert len(a._views) <= VIEW_MEMO_ENTRIES
        assert a.allocations == 1


class TestAllocationCounter:
    def test_counts_creations_and_growths_only(self):
        a = ScratchArena()
        assert a.allocations == 0
        a.take("x", 100)
        assert a.allocations == 1
        a.take("x", 80)  # fits: no realloc
        a.take("x", 100)
        assert a.allocations == 1
        a.take("x", 500)  # growth
        a.take("y", 10)  # new tag
        assert a.allocations == 3
        a.clear()
        assert a.allocations == 0

    def test_kway_reduce_steady_state_allocates_nothing(self):
        """After one warm-up, the fused k-way path must not touch malloc
        for any arena-served buffer — the roofline push depends on it."""
        from repro.bench.kernels import _make_fields
        from repro.homomorphic.hzdynamic import HZDynamic

        engine = HZDynamic()
        fields = _make_fields(8, 16384)
        arena = get_arena()
        arena.clear()
        warm = engine.reduce_fused(fields)  # warm-up sizes every tag
        baseline = arena.allocations
        assert baseline > 0  # the path really is arena-served
        steady = engine.reduce_fused(fields)
        assert arena.allocations == baseline
        np.testing.assert_array_equal(steady.payload, warm.payload)

    def test_allocations_flat_across_100_warmed_folds(self):
        """Memoised views change nothing about which buffers exist."""
        from repro.compression.fzlight import FZLight
        from repro.homomorphic.hzdynamic import HZDynamic

        rng = np.random.default_rng(2)
        comp = FZLight(block_size=32, n_threadblocks=18)
        pair = comp.compress(
            [np.cumsum(rng.normal(0, 0.02, 512)).astype(np.float32) for _ in range(2)],
            abs_eb=1e-4,
        )
        engine = HZDynamic()
        arena = get_arena()
        arena.clear()
        warm = engine.reduce_fused(pair).to_bytes()
        baseline = arena.allocations
        for _ in range(100):
            assert engine.reduce_fused(pair).to_bytes() == warm
        assert arena.allocations == baseline

    def test_sparse_reduce_steady_state_allocates_nothing(self):
        """The gather strategy's accumulator/decode rows are arena-served
        too; force it by keeping the accumulate class sparse."""
        from repro.bench.kernels import _make_fields
        from repro.homomorphic.hzdynamic import HZDynamic

        engine = HZDynamic()
        fields = _make_fields(2, 16384)
        nb = fields[1].code_lengths.size
        dense_frac = float(
            ((fields[0].code_lengths != 0) & (fields[1].code_lengths != 0)).sum()
        ) / nb
        assert dense_frac < HZDynamic.DENSE_THRESHOLD
        arena = get_arena()
        arena.clear()
        engine.reduce_fused(fields)
        baseline = arena.allocations
        assert baseline > 0
        engine.reduce_fused(fields)
        assert arena.allocations == baseline


class TestNoStaleLeakageThroughKernels:
    def test_repeated_encode_decode_independent(self):
        """Back-to-back kernel calls must not see each other's scratch."""
        from repro.compression.encoding import decode_blocks, encode_blocks

        rng = np.random.default_rng(0)
        big = rng.integers(-(2**20), 2**20, size=(256, 32)).astype(np.int64)
        small = rng.integers(-3, 4, size=(16, 32)).astype(np.int64)
        # large call warms (and dirties) every arena buffer ...
        lens_b, pay_b = encode_blocks(big, 32)
        np.testing.assert_array_equal(decode_blocks(lens_b, pay_b, 32), big)
        # ... the small call right after must be byte-identical to a
        # cold-arena run
        lens_s, pay_s = encode_blocks(small, 32)
        get_arena().clear()
        lens_cold, pay_cold = encode_blocks(small, 32)
        np.testing.assert_array_equal(lens_s, lens_cold)
        np.testing.assert_array_equal(pay_s, pay_cold)

    def test_decode_results_are_fresh_allocations(self):
        """Returned arrays must not alias arena scratch across calls."""
        from repro.compression.encoding import decode_blocks, encode_blocks

        rng = np.random.default_rng(1)
        d1 = rng.integers(-100, 100, size=(64, 32)).astype(np.int64)
        d2 = rng.integers(-100, 100, size=(64, 32)).astype(np.int64)
        lens1, pay1 = encode_blocks(d1, 32)
        lens2, pay2 = encode_blocks(d2, 32)
        out1 = decode_blocks(lens1, pay1, 32)
        snapshot = out1.copy()
        decode_blocks(lens2, pay2, 32)  # second call must not clobber out1
        np.testing.assert_array_equal(out1, snapshot)


class TestThreadLocal:
    def test_get_arena_is_per_thread(self):
        main_arena = get_arena()
        seen = {}

        def worker():
            seen["arena"] = get_arena()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["arena"] is not main_arena

    def test_same_thread_same_arena(self):
        assert get_arena() is get_arena()
