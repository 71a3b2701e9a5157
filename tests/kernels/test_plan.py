"""GroupingPlan: the one-argsort replacement for np.unique + per-c masks."""

import numpy as np
import pytest

from repro.kernels import plan as plan_module
from repro.kernels.plan import (
    GroupingPlan,
    StreamLayout,
    block_payload_nbytes,
    payload_offsets,
    required_bits,
    stream_layout,
)


class TestGroupingPlan:
    def test_matches_unique_nonzero(self):
        rng = np.random.default_rng(0)
        lens = rng.integers(0, 33, size=500).astype(np.uint8)
        plan = GroupingPlan.from_code_lengths(lens)
        expected = {int(c): np.nonzero(lens == c)[0] for c in np.unique(lens)}
        got = {c: idx for c, idx in plan.groups()}
        assert sorted(got) == sorted(expected)
        for c, idx in expected.items():
            np.testing.assert_array_equal(got[c], idx)

    def test_groups_ascending_by_code_length(self):
        lens = np.array([5, 1, 5, 0, 3], dtype=np.uint8)
        plan = GroupingPlan.from_code_lengths(lens)
        assert [c for c, _ in plan.groups()] == [0, 1, 3, 5]

    def test_within_group_positions_ascending(self):
        # stability of the argsort is what enables the contiguous-run
        # fast paths; it must hold for every group
        rng = np.random.default_rng(1)
        lens = rng.integers(0, 4, size=1000).astype(np.uint8)
        for _, idx in GroupingPlan.from_code_lengths(lens).groups():
            assert np.all(np.diff(idx) > 0)

    def test_contiguous_runs_visible_in_order(self):
        lens = np.array([2, 2, 2, 7, 7], dtype=np.uint8)
        plan = GroupingPlan.from_code_lengths(lens)
        groups = dict(plan.groups())
        np.testing.assert_array_equal(groups[2], [0, 1, 2])
        np.testing.assert_array_equal(groups[7], [3, 4])

    def test_empty(self):
        plan = GroupingPlan.from_code_lengths(np.zeros(0, dtype=np.uint8))
        assert plan.n_groups == 0
        assert list(plan.groups()) == []

    def test_single_value(self):
        plan = GroupingPlan.from_code_lengths(np.full(7, 9, dtype=np.uint8))
        assert plan.n_groups == 1
        ((c, idx),) = plan.groups()
        assert c == 9
        np.testing.assert_array_equal(idx, np.arange(7))


class TestGeometryHelpers:
    """The canonical helpers moved here; encoding.py re-exports them."""

    @pytest.mark.parametrize(
        "value,bits",
        [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9),
         (2**31 - 1, 31), (2**31, 32), (2**32 - 1, 32)],
    )
    def test_required_bits_boundaries(self, value, bits):
        assert required_bits(np.array([value]))[0] == bits

    def test_offsets_prefix_sum(self):
        offs = payload_offsets(np.array([0, 2, 0, 1]), 32)
        np.testing.assert_array_equal(offs, [0, 0, 12, 12, 20])

    def test_block_nbytes(self):
        np.testing.assert_array_equal(
            block_payload_nbytes(np.array([0, 1, 32]), 32), [0, 8, 132]
        )

    def test_reexport_is_same_object(self):
        from repro.compression import encoding

        assert encoding.required_bits is required_bits
        assert encoding.payload_offsets is payload_offsets
        assert encoding.block_payload_nbytes is block_payload_nbytes


class TestStreamLayout:
    """One layout per code-length signature, shared and read-only."""

    LENS = np.array([5, 5, 0, 9, 5, 9, 0, 0, 5, 9, 5, 5], dtype=np.uint8)

    def test_groups_cover_every_block_once(self):
        layout = StreamLayout(self.LENS, 32)
        assert [g.c for g in layout.groups] == [0, 5, 9]
        seen = np.concatenate([g.rows for g in layout.groups])
        np.testing.assert_array_equal(np.sort(seen), np.arange(self.LENS.size))
        assert layout.max_c == 9 and layout.n_blocks == self.LENS.size
        np.testing.assert_array_equal(layout.offsets, payload_offsets(self.LENS, 32))

    def test_each_group_finds_its_bytes_one_way(self):
        """Slice, run copies or gather indices — exactly one per group."""
        rng = np.random.default_rng(3)
        for lens in (
            self.LENS,
            np.repeat(np.array([3, 0, 7, 3], dtype=np.uint8), 40),  # long runs
            rng.integers(0, 4, size=600).astype(np.uint8),  # fragmented
        ):
            layout = StreamLayout(lens, 32)
            offsets = payload_offsets(lens, 32)
            for g in layout.groups:
                if g.c == 0:
                    assert (g.lo, g.runs, g.first) == (-1, None, None)
                    continue
                ways = [g.lo >= 0, g.runs is not None, g.first is not None]
                assert sum(ways) == 1
                starts = offsets[g.rows]
                if g.lo >= 0:
                    want = g.lo + g.row_nbytes * np.arange(g.ng)
                    np.testing.assert_array_equal(starts, want)
                elif g.runs is not None:
                    assert len(g.runs) <= max(g.ng // 8, 1)
                    for r0, r1, lo in g.runs:
                        rows = slice(r0 // g.row_nbytes, r1 // g.row_nbytes)
                        want = lo + g.row_nbytes * np.arange(rows.stop - rows.start)
                        np.testing.assert_array_equal(starts[rows], want)
                else:
                    np.testing.assert_array_equal(g.first * layout.unit, starts)
                    want = (
                        starts[:, None] // layout.unit
                        + np.arange(g.row_nbytes // layout.unit)
                    ).reshape(-1)
                    np.testing.assert_array_equal(g.index, want)

    def test_selection_rows_number_the_subset(self):
        picks = np.array([9, 3, 3, 0, 5], dtype=np.int64)
        layout = StreamLayout(
            self.LENS[picks], 32, payload_offsets(self.LENS, 32), blocks=picks
        )
        by_c = {g.c: g for g in layout.groups}
        np.testing.assert_array_equal(by_c[9].rows, [0, 1, 2, 4])
        np.testing.assert_array_equal(by_c[5].rows, [3])
        offsets = payload_offsets(self.LENS, 32)
        np.testing.assert_array_equal(
            by_c[9].first * layout.unit, offsets[picks[by_c[9].rows]]
        )

    def test_equal_signatures_share_one_layout(self):
        a = stream_layout(self.LENS, 32)
        assert stream_layout(self.LENS.copy(), 32) is a
        assert stream_layout(self.LENS, 64) is not a
        other = self.LENS.copy()
        other[0] = 6
        assert stream_layout(other, 32) is not a

    def test_layout_does_not_follow_the_callers_arrays(self):
        """The encoder hands over scratch it will overwrite."""
        lens = self.LENS.copy()
        offsets = payload_offsets(lens, 32)
        layout = stream_layout(lens, 32, offsets)
        lens[:] = 1
        offsets[:] = 0
        assert [g.c for g in layout.groups] == [0, 5, 9]
        np.testing.assert_array_equal(layout.offsets, payload_offsets(self.LENS, 32))

    def test_mutating_a_shared_layout_raises(self):
        rng = np.random.default_rng(4)
        layout = stream_layout(rng.integers(0, 4, size=64).astype(np.uint8), 32)
        shared = [layout.offsets]
        for g in layout.groups:
            shared += [a for a in (g.rows, g.first, g.index) if a is not None]
        assert any(g.index is not None for g in layout.groups)
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        plan = GroupingPlan.from_code_lengths(self.LENS)
        with pytest.raises(ValueError, match="read-only"):
            plan.order[0] = 1

    def test_cache_is_bounded_in_entries_and_bytes(self):
        rng = np.random.default_rng(5)
        first = rng.integers(0, 9, size=32).astype(np.uint8)
        kept = stream_layout(first, 32)
        for _ in range(plan_module.LAYOUT_CACHE_ENTRIES + 8):
            stream_layout(rng.integers(0, 9, size=32).astype(np.uint8), 32)
        assert len(plan_module._cache) <= plan_module.LAYOUT_CACHE_ENTRIES
        assert plan_module._cache_bytes <= plan_module.LAYOUT_CACHE_BYTES
        assert plan_module._cache_bytes == sum(
            entry.footprint for entry in plan_module._cache.values()
        )
        rebuilt = stream_layout(first, 32)  # evicted, built again, equal
        assert rebuilt is not kept
        assert [g.c for g in rebuilt.groups] == [g.c for g in kept.groups]
        # a stream too long to keep is laid out all the same
        long = stream_layout(rng.integers(0, 9, size=1 << 16).astype(np.uint8), 32)
        assert long.footprint > plan_module.LAYOUT_CACHE_BYTES // 8
        assert long not in plan_module._cache.values()

    def test_big_streams_keep_no_gather_indices(self):
        rng = np.random.default_rng(6)
        lens = rng.integers(1, 9, size=4096).astype(np.uint8)
        layout = StreamLayout(lens, 32)
        assert not layout.keeps_indices
        assert all(g.index is None for g in layout.groups)
        assert any(g.first is not None for g in layout.groups)
