"""Batched kernel sweeps: a sequence in one call ≡ one call per item.

``FZLight.compress`` / ``decompress`` run one kernel sweep over the
concatenated block grid of a whole sequence.  The contract pinned here is
that the caller cannot tell: every field is byte-identical to compressing
that array alone, every decoded array bit-identical to decoding that field
alone — and both agree with an oracle assembled from the unbatched
building blocks (``quantize`` → ``lorenzo_encode`` → ``deltas_to_blocks``
→ ``encode_blocks``), so "alone" is not just the batch-of-one of the same
code.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compression.common import (
    dequantize,
    lorenzo_decode,
    lorenzo_encode,
    quantize,
    resolve_error_bound,
)
from repro.compression.encoding import decode_blocks, encode_blocks
from repro.compression.format import blocks_to_deltas, deltas_to_blocks
from repro.compression.fzlight import FZLight
from repro.kernels.arena import get_arena

GEOMETRIES = [(8, 1), (8, 3), (32, 18), (32, 36)]
#: lengths below, at and around every thread-block count and block size
LENGTHS = st.sampled_from(
    [1, 2, 3, 5, 17, 18, 19, 31, 32, 33, 35, 36, 37, 96, 257, 511, 512, 513, 1000]
)


def oracle_compress(data, eb, block_size, n_tb):
    """(outliers, code_lengths, payload) from the unbatched primitives."""
    codes = quantize(data, eb)
    deltas, outliers, _ = lorenzo_encode(codes, n_tb)
    structure = FZLight(block_size, n_tb).compress(data, abs_eb=eb).structure
    blocks = deltas_to_blocks(deltas, structure)
    code_lengths, payload = encode_blocks(blocks, block_size)
    return outliers, code_lengths, payload


def oracle_decompress(field):
    blocks = decode_blocks(field.code_lengths, field.payload, field.block_size)
    structure = field.structure
    deltas = blocks_to_deltas(blocks, structure)
    codes = lorenzo_decode(deltas, field.outliers, structure.bounds)
    return dequantize(codes, field.error_bound)


@st.composite
def array_batches(draw, min_size=1, max_size=6):
    """Mixed-length float32 arrays: walks, constants, offsets, noise."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(draw(st.integers(min_size, max_size))):
        n = draw(LENGTHS)
        kind = draw(st.sampled_from(["walk", "constant", "noise", "offset"]))
        if kind == "walk":
            data = np.cumsum(rng.normal(0, 0.02, n))
        elif kind == "constant":  # every block constant: empty payload
            data = np.full(n, rng.normal())
        elif kind == "noise":
            data = rng.normal(0, 1, n)
        else:  # codes beyond int32 at eb 1e-4, deltas still encodable
            data = 3e5 + np.cumsum(rng.normal(0, 0.5, n))
        batch.append(data.astype(np.float32))
    return batch


def assert_same_field(got, want):
    assert got.to_bytes() == want.to_bytes()
    np.testing.assert_array_equal(got.outliers, want.outliers)
    np.testing.assert_array_equal(got.offsets, want.offsets)
    assert got.outliers.dtype == want.outliers.dtype == np.int64
    assert got.n == want.n and got.error_bound == want.error_bound


SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBatchEqualsLoop:
    @SETTINGS
    @given(
        batch=array_batches(),
        geometry=st.sampled_from(GEOMETRIES),
        eb=st.sampled_from([("abs", 1e-4), ("abs", 1e-2), ("rel", 1e-3)]),
    )
    def test_compress_and_decompress(self, batch, geometry, eb):
        block_size, n_tb = geometry
        comp = FZLight(block_size, n_tb)
        kwargs = {f"{eb[0]}_eb": eb[1]}
        if eb[0] == "rel":  # a zero-range field has no usable relative bound
            batch = [b for b in batch if np.ptp(b) > 0]
            assume(batch)
        fields = comp.compress(batch, **kwargs)
        assert isinstance(fields, list) and len(fields) == len(batch)
        for data, field in zip(batch, fields):
            alone = comp.compress(data, **kwargs)
            assert_same_field(field, alone)
            bound = resolve_error_bound(data, **kwargs)
            outliers, code_lengths, payload = oracle_compress(
                data, bound, block_size, n_tb
            )
            np.testing.assert_array_equal(field.outliers, outliers)
            np.testing.assert_array_equal(field.code_lengths, code_lengths)
            np.testing.assert_array_equal(field.payload, payload)
            field.validate()

        decoded = comp.decompress(fields)
        assert isinstance(decoded, list) and len(decoded) == len(fields)
        for data, field, out in zip(batch, fields, decoded):
            assert out.dtype == np.float32 and out.shape == data.shape
            np.testing.assert_array_equal(out, comp.decompress(field))
            np.testing.assert_array_equal(out, oracle_decompress(field))
            assert np.abs(out.astype(np.float64) - data).max() <= (
                field.error_bound * (1 + 1e-6) + np.spacing(np.abs(data).max())
            )

    @SETTINGS
    @given(batch=array_batches(max_size=4))
    def test_results_own_their_memory(self, batch):
        """Nothing handed back aliases arena scratch or a batch-mate."""
        comp = FZLight(32, 18)
        fields = comp.compress(batch, abs_eb=1e-4)
        decoded = comp.decompress(fields)
        before = [f.to_bytes() for f in fields]
        kept = [d.copy() for d in decoded]
        # clobber every scratch buffer and every other result
        for buf in get_arena()._buffers.values():
            buf.fill(0xAB)
        comp.compress([b[::-1].copy() for b in batch], abs_eb=1e-3)
        for i, out in enumerate(decoded):
            out += 1.0
            for j, other in enumerate(decoded):
                if j != i:
                    np.testing.assert_array_equal(other, kept[j])
            out[...] = kept[i]
        assert [f.to_bytes() for f in fields] == before

    def test_int32_and_int64_codes_in_one_batch(self):
        rng = np.random.default_rng(7)
        narrow = np.cumsum(rng.normal(0, 0.02, 700)).astype(np.float32)
        wide = (4e5 + np.cumsum(rng.normal(0, 0.5, 700))).astype(np.float32)
        assert quantize(narrow, 1e-4).dtype == np.int32
        assert quantize(wide, 1e-4).dtype == np.int64
        comp = FZLight(32, 18)
        for batch in ([narrow, wide], [wide, narrow], [narrow, wide, narrow]):
            fields = comp.compress(batch, abs_eb=1e-4)
            for data, field in zip(batch, fields):
                assert_same_field(field, comp.compress(data, abs_eb=1e-4))
            for field, out in zip(fields, comp.decompress(fields)):
                np.testing.assert_array_equal(out, comp.decompress(field))

    def test_wide_code_lengths_do_not_leak_into_batch_mates(self):
        """One member needing 32-bit magnitudes widens the decode grid."""
        comp = FZLight(32, 2)
        calm = np.zeros(64, dtype=np.float32)
        wild = np.zeros(64, dtype=np.float32)
        wild[1::2] = 6e5  # |delta| = 3e9 codes: past 2**31 at eb 1e-4
        fields = comp.compress([calm, wild, calm], abs_eb=1e-4)
        assert int(fields[1].code_lengths.max()) == 32
        for field, out in zip(fields, comp.decompress(fields)):
            np.testing.assert_array_equal(out, comp.decompress(field))
            np.testing.assert_array_equal(out, oracle_decompress(field))

    def test_batch_of_one_is_a_list_and_single_is_not(self):
        comp = FZLight()
        data = np.linspace(0, 1, 300, dtype=np.float32)
        (field,) = comp.compress([data], abs_eb=1e-4)
        alone = comp.compress(data, abs_eb=1e-4)
        assert_same_field(field, alone)
        (out,) = comp.decompress((field,))
        np.testing.assert_array_equal(out, comp.decompress(alone))

    def test_order_is_the_callers_not_the_geometry_groups(self):
        comp = FZLight(32, 18)
        rng = np.random.default_rng(3)
        sizes = [513, 512, 513, 40, 512]
        batch = [rng.normal(0, 1, n).astype(np.float32) for n in sizes]
        fields = comp.compress(batch, abs_eb=1e-3)
        assert [f.n for f in fields] == sizes
        assert [a.size for a in comp.decompress(fields[::-1])] == sizes[::-1]

    def test_long_sequences_are_cut_into_bounded_sweeps(self, monkeypatch):
        """Past the sweep cap the sequence runs as several sweeps (scratch
        stays bounded); the caller sees the same list either way."""
        from repro.compression import fzlight

        comp = FZLight(32, 18)
        rng = np.random.default_rng(9)
        sizes = [512, 513, 40, 512, 1000, 3, 700]
        batch = [rng.normal(0, 1, n).astype(np.float32) for n in sizes]
        whole = comp.compress(batch, abs_eb=1e-3)
        monkeypatch.setattr(fzlight, "_SWEEP_ELEMS", 600)
        assert list(fzlight._sweeps(sizes)) == [
            (0, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7)
        ]
        cut = comp.compress(batch, abs_eb=1e-3)
        for a, b, data in zip(whole, cut, batch):
            assert_same_field(a, b)
            assert_same_field(a, comp.compress(data, abs_eb=1e-3))
        for a, b in zip(comp.decompress(whole), comp.decompress(cut)):
            np.testing.assert_array_equal(a, b)

    def test_python_list_of_numbers_is_still_one_array(self):
        field = FZLight().compress([0.0, 0.5, 1.0], abs_eb=1e-3)
        assert field.n == 3


class TestFailClean:
    @pytest.mark.parametrize("call", ["compress", "decompress"])
    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_batch(self, call, empty):
        with pytest.raises(ValueError, match="empty batch"):
            if call == "compress":
                FZLight().compress(empty, abs_eb=1e-4)
            else:
                FZLight().decompress(empty)

    @pytest.mark.parametrize(
        "bad, eb",
        [
            (np.array([0.0, 1e7, 0.0], dtype=np.float32), 1e-4),  # delta > 32 bit
            (np.array([3e38, 0.0], dtype=np.float32), 1e-30),  # code > int64
        ],
    )
    def test_overflow_alone_is_overflow_in_a_batch(self, bad, eb):
        comp = FZLight(32, 2)
        good = np.linspace(0, 1, 100, dtype=np.float32)
        with pytest.raises(OverflowError):
            comp.compress(bad, abs_eb=eb)
        for batch in ([bad, good], [good, bad], [good, bad, good]):
            with pytest.raises(OverflowError):
                comp.compress(batch, abs_eb=eb)
        # the failed sweeps left nothing behind that corrupts the next one
        assert_same_field(
            comp.compress([good], abs_eb=1e-4)[0], comp.compress(good, abs_eb=1e-4)
        )

    def test_no_overflow_from_a_batch_mates_scale(self):
        """Huge values under a loose bound next to tiny values under a tight
        one: the sweep-wide |x|·scale bound is astronomic, each member's own
        product is small, and the batch must not overflow where the members
        alone do not."""
        comp = FZLight(32, 2)
        huge = np.linspace(0, 1e30, 50, dtype=np.float32)
        tiny = np.linspace(0, 1e-3, 50, dtype=np.float32)
        fields = comp.compress([huge, tiny, huge], rel_eb=1e-3)
        for data, field in zip([huge, tiny, huge], fields):
            assert_same_field(field, comp.compress(data, rel_eb=1e-3))

    def test_invalid_member_fails_the_batch_like_the_lone_call(self):
        comp = FZLight()
        good = np.linspace(0, 1, 100, dtype=np.float32)
        with pytest.raises(ValueError, match="NaN"):
            comp.compress([good, np.array([np.nan], dtype=np.float32)], abs_eb=1e-4)
        with pytest.raises(ValueError, match="non-empty"):
            comp.compress([good, np.empty(0, dtype=np.float32)], abs_eb=1e-4)
        with pytest.raises(ValueError, match="exactly one"):
            comp.compress([good, good])

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(
            st.tuples(
                LENGTHS,
                st.sampled_from(GEOMETRIES),
                st.sampled_from([1e-2, 1e-4]),
            ),
            min_size=2,
            max_size=6,
        ),
    )
    def test_incompatible_fields_decode_correctly(self, seed, shapes):
        """Any mix of n / block size / thread-blocks / eb in one decode."""
        rng = np.random.default_rng(seed)
        fields = []
        for n, (block_size, n_tb), eb in shapes:
            data = np.cumsum(rng.normal(0, 0.05, n)).astype(np.float32)
            fields.append(FZLight(block_size, n_tb).compress(data, abs_eb=eb))
        decoded = FZLight().decompress(fields)  # decoder geometry ≠ any field's
        for field, out in zip(fields, decoded):
            np.testing.assert_array_equal(out, oracle_decompress(field))
            np.testing.assert_array_equal(
                out, FZLight(field.block_size, field.n_threadblocks).decompress(field)
            )

    def test_mis_sized_member_is_refused_not_mis_sliced(self):
        comp = FZLight(32, 2)
        rng = np.random.default_rng(5)
        fields = comp.compress(
            [rng.normal(0, 1, 200).astype(np.float32) for _ in range(3)],
            abs_eb=1e-3,
        )
        short = fields[1].copy()
        short.payload = short.payload[:-4]
        with pytest.raises(ValueError, match="payload has"):
            comp.decompress([fields[0], short, fields[2]])
        lost = fields[1].copy()
        lost.code_lengths = lost.code_lengths[:-1]
        with pytest.raises(ValueError, match="code_lengths has"):
            comp.decompress([fields[0], lost, fields[2]])
