"""Unit + property tests for the fZ-light compressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression import check_error_bound
from repro.compression.fzlight import FZLight, compress, decompress


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 1000, 100_003])
    def test_sizes(self, compressor, n):
        data = np.sin(np.arange(n, dtype=np.float32) * 0.01)
        field = compressor.compress(data, abs_eb=1e-4)
        out = compressor.decompress(field)
        assert out.shape == data.shape
        assert out.dtype == np.float32
        assert check_error_bound(data, out, 1e-4)

    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6])
    def test_error_bounds(self, compressor, smooth_data, eb):
        field = compressor.compress(smooth_data, abs_eb=eb)
        assert check_error_bound(smooth_data, compressor.decompress(field), eb)

    def test_relative_bound(self, compressor, smooth_data):
        field = compressor.compress(smooth_data, rel_eb=1e-3)
        expected = 1e-3 * (smooth_data.max() - smooth_data.min())
        assert field.error_bound == pytest.approx(expected)

    def test_rough_data(self, compressor, rough_data):
        field = compressor.compress(rough_data, abs_eb=1e-3)
        assert check_error_bound(rough_data, compressor.decompress(field), 1e-3)

    def test_sparse_data_high_ratio(self, compressor, sparse_data):
        field = compressor.compress(sparse_data, abs_eb=1e-4)
        assert check_error_bound(sparse_data, compressor.decompress(field), 1e-4)
        assert field.compression_ratio > 20  # mostly constant blocks

    def test_exact_zeros_reconstruct_near_zero(self, compressor, sparse_data):
        field = compressor.compress(sparse_data, abs_eb=1e-4)
        out = compressor.decompress(field)
        zeros = sparse_data == 0
        assert np.abs(out[zeros]).max() <= 1e-4

    def test_constant_field(self, compressor):
        data = np.full(10_000, 3.25, dtype=np.float32)
        field = compressor.compress(data, abs_eb=1e-4)
        assert field.compression_ratio > 50
        assert check_error_bound(data, compressor.decompress(field), 1e-4)

    def test_multidimensional_input_flattened(self, compressor):
        data = np.random.default_rng(0).normal(0, 1, (50, 40)).astype(np.float32)
        field = compressor.compress(data, abs_eb=1e-3)
        out = compressor.decompress(field)
        assert out.shape == (2000,)
        assert check_error_bound(data.ravel(), out, 1e-3)


class TestModes:
    def test_deterministic(self, smooth_data, compressor):
        a = compressor.compress(smooth_data, abs_eb=1e-4)
        b = compressor.compress(smooth_data, abs_eb=1e-4)
        assert a.to_bytes() == b.to_bytes()

    @pytest.mark.parametrize("n_tb", [1, 2, 5, 36, 100])
    def test_threadblock_counts(self, smooth_data, n_tb):
        comp = FZLight(n_threadblocks=n_tb)
        field = comp.compress(smooth_data, abs_eb=1e-4)
        assert field.outliers.size == n_tb
        assert check_error_bound(smooth_data, comp.decompress(field), 1e-4)

    def test_small_block_size(self, smooth_data):
        comp = FZLight(block_size=8)
        field = comp.compress(smooth_data, abs_eb=1e-4)
        assert check_error_bound(smooth_data, comp.decompress(field), 1e-4)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            FZLight(block_size=12)

    def test_rejects_bad_threadblocks(self):
        with pytest.raises(ValueError):
            FZLight(n_threadblocks=0)


class TestCompressionQuality:
    def test_smoother_data_compresses_better(self, compressor, rng):
        rough = rng.normal(0, 1, 50_000).astype(np.float32)
        smooth = np.cumsum(rng.normal(0, 0.001, 50_000)).astype(np.float32)
        r_rough = compressor.compress(rough, rel_eb=1e-3).compression_ratio
        r_smooth = compressor.compress(smooth, rel_eb=1e-3).compression_ratio
        assert r_smooth > r_rough

    def test_looser_bound_compresses_better(self, compressor, smooth_data):
        loose = compressor.compress(smooth_data, rel_eb=1e-2).compression_ratio
        tight = compressor.compress(smooth_data, rel_eb=1e-4).compression_ratio
        assert loose > tight

    def test_fewer_outliers_than_ompszp(self, compressor, ompszp, smooth_data):
        """fZ-light stores one outlier per thread-block, ompSZp one per block."""
        fz = compressor.compress(smooth_data, abs_eb=1e-4)
        omp = ompszp.compress(smooth_data, abs_eb=1e-4)
        assert fz.outliers.size < omp.outliers.size


class TestModuleFunctions:
    def test_compress_decompress_helpers(self, smooth_data):
        field = compress(smooth_data, abs_eb=1e-3)
        out = decompress(field)
        assert check_error_bound(smooth_data, out, 1e-3)

    def test_helper_respects_geometry(self, smooth_data):
        field = compress(smooth_data, abs_eb=1e-3, block_size=8, n_threadblocks=4)
        assert field.block_size == 8
        assert field.n_threadblocks == 4


class TestProperties:
    @given(
        data=arrays(
            np.float32,
            st.integers(1, 2000),
            elements=st.floats(-1e3, 1e3, width=32),
        ),
        eb=st.sampled_from([1e-1, 1e-2, 1e-3]),
        n_tb=st.sampled_from([1, 3, 36]),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_bound_always_holds(self, data, eb, n_tb):
        comp = FZLight(n_threadblocks=n_tb)
        field = comp.compress(data, abs_eb=eb)
        assert check_error_bound(data, comp.decompress(field), eb)

    @given(
        data=arrays(
            np.float32, st.integers(1, 500), elements=st.floats(-10, 10, width=32)
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_idempotent_on_reconstruction(self, data):
        """Compressing the reconstruction reproduces it exactly (codes are
        already on the quantisation grid)."""
        comp = FZLight(n_threadblocks=3)
        eb = 1e-2
        rec1 = comp.decompress(comp.compress(data, abs_eb=eb))
        rec2 = comp.decompress(comp.compress(rec1, abs_eb=eb))
        np.testing.assert_allclose(rec1, rec2, atol=2e-7 * np.abs(rec1).max() + 1e-12)
