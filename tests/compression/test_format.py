"""Unit tests for the compressed container and wire format."""

import numpy as np
import pytest

from repro.compression.format import (
    block_structure,
    blocks_to_deltas,
    deltas_to_blocks,
    from_bytes,
)
from repro.compression.fzlight import FZLight


class TestBlockStructure:
    def test_total_blocks(self):
        s = block_structure(100, 32, 3)  # 33/33/34 → 2+2+2 blocks
        assert s.total_blocks == 6

    def test_blocks_per_threadblock(self):
        s = block_structure(100, 32, 3)
        np.testing.assert_array_equal(s.blocks_per_tb, [2, 2, 2])

    def test_exact_multiple(self):
        s = block_structure(96, 32, 3)
        np.testing.assert_array_equal(s.blocks_per_tb, [1, 1, 1])

    def test_empty_threadblocks(self):
        s = block_structure(2, 32, 5)
        assert s.total_blocks >= 1
        assert int(s.blocks_per_tb.sum()) == s.total_blocks

    def test_memoised(self):
        assert block_structure(50, 32, 2) is block_structure(50, 32, 2)

    def test_size_sweep_keeps_the_hot_geometry(self):
        """The memo is an LRU: 257 cold geometries evict each other, never
        the one a running collective keeps touching (a ``clear()`` at the
        cap dropped everything at once)."""
        hot = block_structure(4096, 32, 18)
        for n in range(5000, 5257):
            block_structure(n, 32, 18)
            assert block_structure(4096, 32, 18) is hot
        assert block_structure.cache_info().currsize <= 256

    def test_shared_arrays_are_read_only(self):
        """Every field of a shape shares these arrays; none may edit them."""
        field = FZLight(32, 3).compress(np.arange(100, dtype=np.float32), abs_eb=0.5)
        structure = field.structure
        for shared in (
            structure.bounds,
            structure.blocks_per_tb,
            structure.block_starts,
            structure.element_to_slot,
        ):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 7
        assert block_structure(100, 32, 3).bounds[0] == 0

    def test_element_to_slot_bijective_into_grid(self):
        s = block_structure(100, 32, 3)
        slots = s.element_to_slot
        assert slots.size == 100
        assert len(np.unique(slots)) == 100
        assert slots.max() < s.total_blocks * 32


class TestBlockScatterGather:
    @pytest.mark.parametrize("n,tb", [(100, 3), (32, 1), (7, 4), (1000, 36)])
    def test_roundtrip(self, n, tb):
        s = block_structure(n, 32, tb)
        deltas = np.arange(n, dtype=np.int64) - n // 2
        grid = deltas_to_blocks(deltas, s)
        assert grid.shape == (s.total_blocks, 32)
        np.testing.assert_array_equal(blocks_to_deltas(grid, s), deltas)

    def test_padding_is_zero(self):
        s = block_structure(10, 32, 1)
        grid = deltas_to_blocks(np.ones(10, dtype=np.int64), s)
        assert grid[0, 10:].sum() == 0

    def test_matches_element_to_slot_oracle(self):
        """The fast per-thread-block copies equal the index-map definition."""
        s = block_structure(333, 32, 7)
        deltas = np.random.default_rng(1).integers(-9, 9, 333)
        grid = deltas_to_blocks(deltas, s)
        oracle = np.zeros(s.total_blocks * 32, dtype=np.int64)
        oracle[s.element_to_slot] = deltas
        np.testing.assert_array_equal(grid.reshape(-1), oracle)

    def test_preserves_dtype(self):
        s = block_structure(10, 32, 1)
        grid = deltas_to_blocks(np.ones(10, dtype=np.int32), s)
        assert grid.dtype == np.int32


class TestCompressedField:
    @pytest.fixture()
    def field(self):
        data = np.sin(np.linspace(0, 20, 5000)).astype(np.float32)
        return FZLight().compress(data, abs_eb=1e-4)

    def test_validate_passes(self, field):
        field.validate()

    def test_validate_catches_truncated_payload(self, field):
        field.payload = field.payload[:-1]
        with pytest.raises(ValueError, match="payload"):
            field.validate()

    def test_validate_catches_wrong_code_length_count(self, field):
        field.code_lengths = field.code_lengths[:-1]
        with pytest.raises(ValueError, match="code_lengths"):
            field.validate()

    def test_nbytes_counts_stream_parts(self, field):
        assert field.nbytes == len(field.to_bytes())

    def test_compression_ratio(self, field):
        assert field.compression_ratio == pytest.approx(
            field.n * 4 / field.nbytes
        )

    def test_compatible_with_self(self, field):
        assert field.compatible_with(field.copy())

    def test_incompatible_different_eb(self, field):
        other = field.copy()
        other.error_bound = 2e-4
        assert not field.compatible_with(other)

    def test_copy_is_deep_for_arrays(self, field):
        other = field.copy()
        other.payload[:1] = 255
        assert field.payload[0] != other.payload[0] or field.payload.size == 0


class TestWireFormat:
    @pytest.fixture()
    def field(self):
        data = np.cos(np.linspace(0, 8, 3001)).astype(np.float32)
        return FZLight(n_threadblocks=4).compress(data, abs_eb=1e-3)

    def test_roundtrip(self, field):
        out = from_bytes(field.to_bytes())
        assert out.n == field.n
        assert out.error_bound == field.error_bound
        np.testing.assert_array_equal(out.code_lengths, field.code_lengths)
        np.testing.assert_array_equal(out.outliers, field.outliers)
        np.testing.assert_array_equal(out.payload, field.payload)

    def test_decompresses_identically(self, field):
        comp = FZLight(n_threadblocks=4)
        np.testing.assert_array_equal(
            comp.decompress(from_bytes(field.to_bytes())), comp.decompress(field)
        )

    def test_bad_magic(self, field):
        blob = bytearray(field.to_bytes())
        blob[0] = 0
        with pytest.raises(ValueError, match="magic"):
            from_bytes(bytes(blob))

    def test_truncated_header(self):
        with pytest.raises(ValueError, match="header"):
            from_bytes(b"HZ")

    def test_truncated_body(self, field):
        with pytest.raises(ValueError, match="bytes"):
            from_bytes(field.to_bytes()[:-3])

    def test_bad_version(self, field):
        blob = bytearray(field.to_bytes())
        blob[4] = 99
        with pytest.raises(ValueError, match="version"):
            from_bytes(bytes(blob))
