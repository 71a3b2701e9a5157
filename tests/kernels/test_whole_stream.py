"""Whole-stream passes in the NumPy coder, checked at their boundaries.

Every operation of the hz data path runs over the whole stream, where it
once ran one block per NumPy inner loop: the sign bits, the one-bit
residuals, the staging index, the blocks' non-zero flags, the decoded rows'
way back to grid order and the decompress prefix sums.  Each site is
compared here with the per-block formula it replaced, kept in this file,
and the kernels end to end with the uncompiled scalar loops of
:mod:`repro.kernels._kernels_py`.  Outputs must be bit-identical.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import fzlight
from repro.compression.fzlight import FZLight, _code_dtype, _layout
from repro.kernels import _kernels_py
from repro.kernels import numpy_backend as npb
from repro.kernels import plan
from repro.kernels.plan import StreamLayout, payload_offsets

BLOCK_SIZES = (8, 16, 32, 64)
CODE_LENGTHS = (1, 8, 9, 17, 25, 32)
INT32_MAX = (1 << 31) - 1
EXAMPLES = settings(max_examples=25, deadline=None)


@st.composite
def grids(draw):
    """``(n_blocks, bs)`` deltas: one-block streams, all-constant and
    single-group streams, and mixes of the code lengths that exercise
    every plane and the one-bit residuals; int32 or int64."""
    bs = draw(st.sampled_from(BLOCK_SIZES))
    nb = draw(st.sampled_from((1, 2, 5, 40)))
    kind = draw(st.sampled_from(("mixed", "single", "constant")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        lens = np.zeros(nb, dtype=np.int64)
    elif kind == "single":
        lens = np.full(nb, draw(st.sampled_from(CODE_LENGTHS)))
    else:
        lens = rng.choice((0,) + CODE_LENGTHS, size=nb)
    deltas = np.zeros((nb, bs), dtype=np.int64)
    for i, c in enumerate(lens.tolist()):
        if c:
            row = rng.integers(0, 1 << c, size=bs, dtype=np.int64)
            row[rng.integers(0, bs)] = (1 << c) - 1  # needs exactly c bits
            deltas[i] = row * rng.choice((-1, 1), size=bs)
    if draw(st.booleans()) and lens.max(initial=0) <= 31:
        deltas = deltas.astype(np.int32)
    return deltas


def scalar_encode(deltas):
    """The scalar loops' stream: classify, offsets, then every block."""
    nb, bs = deltas.shape
    lens = np.empty(nb, dtype=np.uint8)
    _kernels_py.classify_blocks_loop(deltas, lens)
    offsets = payload_offsets(lens, bs)
    payload = np.zeros(int(offsets[-1]), dtype=np.uint8)
    _kernels_py.encode_from_deltas_loop(deltas, lens, offsets, payload)
    return lens, payload, offsets


def scalar_decode(indices, lens, offsets, payload, bs):
    out = np.empty((indices.size, bs), dtype=np.int64)
    _kernels_py.decode_into_loop(
        indices.astype(np.int64), lens, offsets, payload, out,
        np.empty(bs, dtype=np.uint8),
    )
    return out


class TestEndToEnd:
    @EXAMPLES
    @given(grids())
    def test_encode_is_the_scalar_loops_stream(self, deltas):
        lens, payload, offsets = npb.encode_with_offsets(deltas, deltas.shape[1])
        want = scalar_encode(deltas)
        np.testing.assert_array_equal(lens, want[0])
        np.testing.assert_array_equal(payload, want[1])
        np.testing.assert_array_equal(offsets, want[2])

    @EXAMPLES
    @given(grids(), st.integers(0, 2**32 - 1))
    def test_decodes_are_the_scalar_loops_rows(self, deltas, seed):
        nb, bs = deltas.shape
        lens, payload, offsets = scalar_encode(deltas)
        every = np.arange(nb)
        want = scalar_decode(every, lens, offsets, payload, bs)
        np.testing.assert_array_equal(
            npb.decode_blocks(lens, payload, bs, offsets=offsets), want
        )
        picks = np.random.default_rng(seed).integers(0, nb, size=2 * nb + 1)
        np.testing.assert_array_equal(
            npb.decode_selected(picks, lens, offsets, payload, bs),
            scalar_decode(picks, lens, offsets, payload, bs),
        )


class TestSites:
    @EXAMPLES
    @given(grids())
    def test_sign_bits_pack_and_unpack_flat(self, deltas):
        nb, bs = deltas.shape
        negative = deltas < 0
        packed = np.packbits(negative).reshape(nb, bs // 8)
        np.testing.assert_array_equal(packed, np.packbits(negative, axis=1))
        np.testing.assert_array_equal(
            np.unpackbits(packed.reshape(-1)).reshape(nb, bs),
            np.unpackbits(packed, axis=1),
        )

    @EXAMPLES
    @given(
        st.sampled_from(BLOCK_SIZES),
        st.sampled_from((1, 9, 17, 25)),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_one_bit_residuals_by_one_compare(self, bs, c, ng, seed):
        """Below ``2**c`` with ``c % 8 == 1``, bit ``c − 1`` is set iff the
        magnitude reaches ``2**(c − 1)``; the row-wise formula packed byte
        ``c // 8`` row by row."""
        mags = np.random.default_rng(seed).integers(
            0, 1 << c, size=(ng, bs), dtype=np.uint64
        ).astype(np.uint32)
        byte = ((mags >> np.uint32(8 * (c >> 3))) & np.uint32(0xFF)).astype(np.uint8)
        rowwise = np.packbits(byte, axis=1)
        flat = np.packbits(mags >= np.uint32(1 << (c - 1)))
        np.testing.assert_array_equal(flat.reshape(ng, bs // 8), rowwise)
        np.testing.assert_array_equal(
            np.unpackbits(flat).reshape(ng, bs), np.unpackbits(rowwise, axis=1)
        )

    @EXAMPLES
    @given(grids())
    def test_block_flags_are_any_along_the_row(self, deltas):
        np.testing.assert_array_equal(
            npb.block_words(deltas) != 0, deltas.any(axis=1)
        )

    @pytest.mark.parametrize("bs", (24, 128))
    def test_block_flags_of_blocks_no_word_holds(self, bs):
        grid = np.zeros((5, bs), dtype=np.int64)
        grid[1, -1] = grid[3, 0] = -7
        np.testing.assert_array_equal(
            npb.block_words(grid) != 0, grid.any(axis=1)
        )

    @staticmethod
    def broadcast_index(layout):
        """One broadcast add per slice of the staged payload."""
        staging = layout.staging
        out = np.empty(staging.nbytes // layout.unit, dtype=np.intp)
        for first, rows, at, width, u0 in staging.sections:
            np.add(
                staging.starts[first : first + rows, None],
                np.arange(at, at + width),
                out=out[u0 : u0 + rows * width].reshape(rows, width),
            )
        return out

    @EXAMPLES
    @given(grids())
    def test_staging_index_and_inverse_order(self, deltas):
        nb, bs = deltas.shape
        lens = scalar_encode(deltas)[0]
        layout = StreamLayout(lens, bs)
        staging = layout.staging
        want = self.broadcast_index(layout)
        got = np.empty(want.size, dtype=np.intp)
        np.testing.assert_array_equal(layout.staged_index(staging, got), want)
        rows = np.arange(nb * 3).reshape(nb, 3)
        scattered = np.empty_like(rows)
        scattered[staging.order] = rows
        np.testing.assert_array_equal(rows[staging.inverse], scattered)

    def test_staging_index_past_one_ramp(self):
        """Slices longer than a kept ramp are indexed ramp by ramp."""
        rows = plan._RAMP_ROWS + 5
        lens = np.tile(np.array([9, 3, 30], dtype=np.uint8), rows)
        layout = StreamLayout(lens, 32)
        want = self.broadcast_index(layout)
        got = np.empty(want.size, dtype=np.intp)
        np.testing.assert_array_equal(layout.staged_index(layout.staging, got), want)


def int64_decompress(comp, fields):
    """``FZLight._decompress_sweep`` with int64 prefix sums, always."""
    bs = fields[0].block_size
    sweep = _layout(tuple([(f.n, f.n_threadblocks) for f in fields]), bs)
    ordered = [fields[i] for i in sweep.order]
    flat = fzlight._delta_grid(ordered, sweep, bs)[0].reshape(-1).copy()
    out = [None] * len(fields)
    for group in sweep.groups:
        members = group.members
        outliers = np.array([fields[i].outliers for i in members], dtype=np.int64)
        twice_eb = np.array([2.0 * fields[i].error_bound for i in members])
        decoded = np.empty((len(members), group.n), dtype=np.float32)
        for slots, cols, values in group.runs(flat, decoded):
            codes = slots.cumsum(axis=2, dtype=np.int64)
            codes += outliers[:, cols, None]
            np.multiply(codes, twice_eb[:, None, None], out=values, dtype=np.float64)
        for j, i in enumerate(members):
            out[i] = decoded[j]
    return out


def _ramp(n):
    """Rising data: every delta 1, so codes climb by one per element."""
    return (np.arange(n, dtype=np.float64) * 2e-3).astype(np.float32)


COMP = FZLight(block_size=32, n_threadblocks=4)
EB = 1e-3


class TestPrefixSumWidth:
    def test_the_bound_admits_int32_exactly_at_its_limit(self):
        run, peak = 1024, (1 << 21) - 1
        at_limit = np.array([[0, -(INT32_MAX - run * peak), 5]])
        assert run * peak + INT32_MAX - run * peak == INT32_MAX
        assert _code_dtype(run, peak, at_limit) is np.int32
        assert _code_dtype(run, peak, at_limit - 1) is np.int64
        assert _code_dtype(run, peak + 1, at_limit) is np.int64
        assert _code_dtype(run, peak, np.array([[3, -(2**63)]])) is np.int64

    @pytest.mark.parametrize("past", (0, 1))
    @pytest.mark.parametrize("held", (False, True))
    def test_decompress_at_and_one_past_the_bound(self, past, held):
        """Outliers placed so that ``run·peak + max |outlier|`` is exactly
        ``2**31 − 1`` (int32) or one more (int64), for a stream and for a
        quantised member (its ``bound`` standing for ``2**max_c − 1``)."""
        n = 4096
        q = COMP.quantise(_ramp(n), abs_eb=EB)
        field = q if held else COMP.compress(q)
        sweep = _layout(((n, COMP.n_threadblocks),), 32)
        peak = q.bound if held else (1 << int(field.code_lengths.max())) - 1
        reach = INT32_MAX - sweep.groups[0].run * peak + past
        outliers = np.full(COMP.n_threadblocks, reach, dtype=np.int64)
        field = dataclasses.replace(field, outliers=outliers)
        want = _code_dtype(sweep.groups[0].run, peak, outliers[None])
        assert want is (np.int64 if past else np.int32)
        np.testing.assert_array_equal(
            COMP.decompress(field), int64_decompress(COMP, [field])[0]
        )

    @pytest.mark.parametrize("held", (False, True))
    def test_codes_past_int32_are_summed_in_int64(self, held):
        """Codes that leave int32 partway through a thread-block: an int32
        prefix sum would wrap them."""
        n = 4096
        q = COMP.quantise(_ramp(n), abs_eb=EB)
        field = q if held else COMP.compress(q)
        outliers = np.full(COMP.n_threadblocks, INT32_MAX - 100, dtype=np.int64)
        field = dataclasses.replace(field, outliers=outliers)
        want = int64_decompress(COMP, [field])[0]
        assert want.max() > INT32_MAX * 2 * EB  # the codes did leave int32
        np.testing.assert_array_equal(COMP.decompress(field), want)

    @EXAMPLES
    @given(
        st.lists(st.sampled_from((100, 512, 4096)), min_size=1, max_size=4),
        st.lists(st.booleans(), min_size=4, max_size=4),
        st.sampled_from((0, 1 << 20, INT32_MAX - 4096, 1 << 40)),
        st.integers(0, 2**32 - 1),
    )
    def test_mixed_sweeps_match_the_int64_formula(self, sizes, held, reach, seed):
        rng = np.random.default_rng(seed)
        fields = []
        for n, h in zip(sizes, held):
            x = np.cumsum(rng.normal(0, 0.5, n)).astype(np.float32)
            q = COMP.quantise(x, abs_eb=EB)
            f = q if h else COMP.compress(q)
            tilt = rng.integers(-reach, reach + 1, size=COMP.n_threadblocks)
            fields.append(dataclasses.replace(f, outliers=f.outliers + tilt))
        got = COMP.decompress(fields)
        for a, b in zip(got, int64_decompress(COMP, fields)):
            np.testing.assert_array_equal(a, b)


def test_quantised_members_bring_their_bound():
    """A sweep's delta bound is the larger of the streams' ``2**max_c − 1``
    and every quantised member's ``bound``."""
    x = np.cumsum(np.random.default_rng(1).normal(0, 0.5, 512)).astype(np.float32)
    q = COMP.quantise(x, abs_eb=EB)
    wide = dataclasses.replace(q, bound=1 << 30)
    stream = COMP.compress(q)
    sweep = _layout(((512, COMP.n_threadblocks),) * 2, 32)
    _, peak = fzlight._delta_grid([stream, wide], sweep, 32)
    assert peak == 1 << 30
    _, peak = fzlight._delta_grid([stream, stream], sweep, 32)
    assert peak == (1 << int(stream.code_lengths.max())) - 1
