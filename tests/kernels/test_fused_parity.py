"""Property-based parity for the fused kernels across every backend.

Two invariants pin the fused hot path:

* ``encode_with_offsets`` (Numba's single-sweep classification +
  serialisation) is **bit-identical** to the two-pass reference — same code lengths, same
  payload bytes, same offsets — for every backend and for the uncompiled
  scalar loops the Numba backend JIT-compiles;
* ``reduce_fused`` (k-way accumulate) emits the same stream as encoding
  the explicitly computed weighted sum, and its ``zero_after`` Z-matrix
  matches the ground-truth "partial sum through operands 0..j is zero"
  flags the pipeline statistics are derived from.

Hypothesis drives dtypes × block sizes × adversarial block mixes
(constant blocks, cancellation pairs, single-owner blocks, max-magnitude
blocks, the int32 minimum) so the classes the dynamic pipeline dispatches
on all appear, and operand sets on both sides of the width rule that lets
the NumPy fold accumulate in int32.
Backends that are not installed (numba) are skipped per-backend;
the scalar loops always run, so the JIT layout is exercised everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.format import CompressedField
from repro.homomorphic.hzdynamic import HZDynamic
from repro.kernels import _kernels_py
from repro.kernels.dispatch import available_backends, get_backend
from repro.kernels.plan import payload_offsets

BLOCK_SIZES = (8, 32, 64)
DTYPES = (np.int32, np.int64)


@st.composite
def delta_blocks(draw, max_blocks=24):
    """``(deltas, block_size)`` with an adversarial mix of block classes."""
    bs = draw(st.sampled_from(BLOCK_SIZES))
    dtype = draw(st.sampled_from(DTYPES))
    nb = draw(st.integers(min_value=0, max_value=max_blocks))
    max_bits = 31 if dtype is np.int32 else 32
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    deltas = np.zeros((nb, bs), dtype=dtype)
    for i in range(nb):
        kind = draw(
            st.sampled_from(
                ["zero", "tiny", "wide", "max", "negative", "int32-min"]
            )
        )
        if kind == "zero":
            continue
        if kind == "int32-min":
            # -2**31 fits int32 while its magnitude does not
            row = rng.integers(-(2**31) + 1, 2**31, size=bs, dtype=np.int64)
            row[rng.integers(0, bs)] = -(2**31)
            deltas[i] = row.astype(dtype)
            continue
        c = {
            "tiny": draw(st.integers(1, 3)),
            "wide": draw(st.integers(4, max_bits)),
            "max": max_bits,
            "negative": draw(st.integers(1, max_bits)),
        }[kind]
        hi = (1 << c) - 1
        row = rng.integers(0, hi + 1, size=bs, dtype=np.int64)
        row[rng.integers(0, bs)] = hi  # pin the class to exactly c bits
        sign = -1 if kind == "negative" else rng.choice([-1, 1], size=bs)
        deltas[i] = (row * sign).astype(dtype)
    return deltas, bs


#: ``(max code lengths, weights)`` whose width bound ``Σ |w|·(2**c − 1)``
#: is exactly the int32 limit (``narrow``: the fold may run in int32) or
#: one past it (``wide``: it must not).
BOUNDARY_SETS = {
    "narrow": [
        ((30, 30, 1), (1, 1, 1)),
        ((30, 1), (-2, 1)),
        ((31, 7, 12), (1, 0, 0)),
        ((29, 29, 29, 28, 1, 1, 1, 1), (1, -1, 1, 2, 1, -1, 1, 1)),
    ],
    "wide": [
        ((30, 30, 1, 1), (1, 1, 1, 1)),
        ((31, 1), (1, 1)),
        ((30, 1), (-2, 2)),
        ((31, 1, 9), (1, -1, 0)),
        ((29, 29, 29, 28, 1, 1, 1, 1), (1, -1, 1, 2, 1, -1, 1, 2)),
    ],
}


def width_bound(widths, weights) -> int:
    return sum(abs(w) * ((1 << c) - 1) for c, w in zip(widths, weights))


@st.composite
def operand_sets(draw, max_k=8, max_blocks=12):
    """Compatible operands + weights with overlap/cancellation structure.

    Either random operands (zero and negative weights, a partial sum that
    cancels to zero before the last operand), or a :data:`BOUNDARY_SETS`
    entry whose first block sums to exactly +bound and last to -bound.
    """
    bs = draw(st.sampled_from(BLOCK_SIZES))
    nb = draw(st.integers(min_value=1, max_value=max_blocks))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        label = draw(st.sampled_from(sorted(BOUNDARY_SETS)))
        widths, weights = draw(st.sampled_from(BOUNDARY_SETS[label]))
        nb = max(nb, 2)
        ops = []
        for c, w in zip(widths, weights):
            hi = (1 << c) - 1
            d = rng.integers(-hi, hi + 1, size=(nb, bs), dtype=np.int64)
            d[0] = hi if w >= 0 else -hi
            d[-1] = -d[0]
            ops.append(d)
        return ops, np.asarray(weights, dtype=np.int64), bs
    k = draw(st.integers(min_value=2, max_value=max_k))
    ops = []
    for _ in range(k):
        d = rng.integers(-(1 << 12), 1 << 12, size=(nb, bs), dtype=np.int64)
        d[rng.random(nb) < 0.4] = 0  # constant / single-owner blocks
        ops.append(d)
    weights = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    if k >= 3 and draw(st.booleans()):
        # the partial sum through a middle operand cancels to zero
        m = draw(st.integers(1, k - 2))
        weights[m] = 1
        ops[m] = -sum(w * d for w, d in zip(weights[:m], ops[:m]))
    elif draw(st.booleans()):
        ops[1] = -ops[0]  # exact cancellation under unit weights
    return ops, np.asarray(weights, dtype=np.int64), bs


def _two_pass_reference(deltas, bs):
    """The committed layout: NumPy's explicit classify-then-encode path."""
    return get_backend("numpy").encode_with_offsets(deltas, bs)


@settings(max_examples=30, deadline=None)
@given(delta_blocks())
def test_classify_encode_bit_identical_across_backends(case):
    deltas, bs = case
    lens, payload, offsets = _two_pass_reference(deltas, bs)
    decoded = get_backend("numpy").decode_blocks(lens, payload, bs)
    np.testing.assert_array_equal(decoded, deltas)
    for name in available_backends():
        b_lens, b_payload, b_offsets = get_backend(name).encode_with_offsets(
            deltas, bs
        )
        np.testing.assert_array_equal(b_lens, lens, err_msg=name)
        np.testing.assert_array_equal(b_payload, payload, err_msg=name)
        np.testing.assert_array_equal(b_offsets, offsets, err_msg=name)


@settings(max_examples=30, deadline=None)
@given(delta_blocks())
def test_fused_scalar_loops_bit_identical(case):
    """The uncompiled JIT source of the fused sweep matches the reference."""
    deltas, bs = case
    lens, payload, offsets = _two_pass_reference(deltas, bs)
    loop_lens = np.empty(deltas.shape[0], dtype=np.uint8)
    _kernels_py.classify_blocks_loop(deltas, loop_lens)
    np.testing.assert_array_equal(loop_lens, lens)
    loop_payload = np.zeros_like(payload)
    _kernels_py.encode_from_deltas_loop(deltas, loop_lens, offsets, loop_payload)
    np.testing.assert_array_equal(loop_payload, payload)


@settings(max_examples=30, deadline=None)
@given(operand_sets())
def test_reduce_fused_parity_across_backends(case):
    ops, weights, bs = case
    nb = ops[0].shape[0]
    streams = [_two_pass_reference(d, bs) for d in ops]
    lens_mat = np.stack([s[0] for s in streams])
    offs_mat = np.stack([s[2] for s in streams])
    payloads = [s[1] for s in streams]

    expected = np.zeros((nb, bs), dtype=np.int64)
    truth_zero = np.empty((len(ops), nb), dtype=bool)
    for j, d in enumerate(ops):
        expected += int(weights[j]) * d
        truth_zero[j] = ~expected.any(axis=1)
    exp_lens, exp_payload, exp_offsets = _two_pass_reference(expected, bs)

    for name in available_backends():
        out_lens, out_payload, out_offsets, zero_after = get_backend(
            name
        ).reduce_fused(lens_mat, offs_mat, payloads, weights, bs, track=True)
        np.testing.assert_array_equal(out_lens, exp_lens, err_msg=name)
        np.testing.assert_array_equal(out_payload, exp_payload, err_msg=name)
        np.testing.assert_array_equal(out_offsets, exp_offsets, err_msg=name)
        np.testing.assert_array_equal(
            np.asarray(zero_after, dtype=bool), truth_zero, err_msg=name
        )


@settings(max_examples=30, deadline=None)
@given(operand_sets())
def test_reduce_scalar_loop_parity(case):
    """The uncompiled k-way accumulate sweep matches the explicit sum."""
    ops, weights, bs = case
    nb = ops[0].shape[0]
    k = len(ops)
    streams = [_two_pass_reference(d, bs) for d in ops]
    lens_mat = np.stack([s[0] for s in streams]).astype(np.uint8)
    offs_mat = np.stack([s[2] for s in streams]).astype(np.int64)
    sizes = np.array([s[1].size for s in streams], dtype=np.int64)
    bases = np.zeros(k, dtype=np.int64)
    np.cumsum(sizes[:-1], out=bases[1:])
    payload_cat = (
        np.concatenate([s[1] for s in streams])
        if sizes.sum()
        else np.empty(0, dtype=np.uint8)
    )

    expected = np.zeros((nb, bs), dtype=np.int64)
    truth_zero = np.empty((k, nb), dtype=bool)
    for j, d in enumerate(ops):
        expected += int(weights[j]) * d
        truth_zero[j] = ~expected.any(axis=1)

    acc = np.empty((nb, bs), dtype=np.int64)
    out_lengths = np.empty(nb, dtype=np.uint8)
    zero_after = np.empty((k, nb), dtype=np.uint8)
    _kernels_py.reduce_accumulate_loop(
        lens_mat, offs_mat, payload_cat, bases, weights, acc,
        out_lengths, zero_after, True,
    )
    np.testing.assert_array_equal(acc, expected)
    exp_lens, _, _ = _two_pass_reference(expected, bs)
    np.testing.assert_array_equal(out_lengths, exp_lens)
    np.testing.assert_array_equal(zero_after.astype(bool), truth_zero)


def _field(deltas, bs):
    lens, payload, _ = _two_pass_reference(deltas, bs)
    return CompressedField(
        n=deltas.size,
        error_bound=1e-3,
        block_size=bs,
        n_threadblocks=1,
        outliers=np.zeros(1, dtype=np.int64),
        code_lengths=lens,
        payload=payload,
    )


@settings(max_examples=30, deadline=None)
@given(operand_sets())
def test_engine_statistics_match_the_sequential_fold(case):
    """Dense (Z-matrix) and sparse strategies record the pairwise fold's
    pipeline counts; ``kway`` is the fused classification of the operands
    (the fold's own ``kway`` sums k - 1 pairwise ones, so it differs by
    design)."""
    ops, weights, bs = case
    fields = [_field(d, bs) for d in ops]
    w = weights.tolist()
    sequential = HZDynamic()
    partial = sequential.scale(fields[0], w[0])
    for f, wj in zip(fields[1:], w[1:]):
        partial = sequential.reduce_fused((partial, f), weights=(1, wj))

    nz = np.array([f.code_lengths != 0 for f in fields]) & (weights != 0)[:, None]
    contrib = nz.sum(axis=0)
    copy = int(((contrib == 1) & (weights[nz.argmax(axis=0)] == 1)).sum())
    kway = [int((contrib == 0).sum()), copy, int((contrib > 0).sum()) - copy]

    for threshold in (-1.0, 2.0):  # always dense, never dense
        engine = HZDynamic()
        engine.DENSE_THRESHOLD = threshold
        out = engine.reduce_fused(fields, weights=w)
        assert out.to_bytes() == partial.to_bytes(), threshold
        np.testing.assert_array_equal(
            engine.stats.counts, sequential.stats.counts, err_msg=str(threshold)
        )
        np.testing.assert_array_equal(engine.stats.kway, kway)


def test_boundary_sets_sit_on_the_int32_limit():
    for label, bound in (("narrow", 2**31 - 1), ("wide", 2**31)):
        for widths, weights in BOUNDARY_SETS[label]:
            assert width_bound(widths, weights) == bound, (widths, weights)
    assert max(len(w) for w, _ in BOUNDARY_SETS["narrow"]) == 8


class TestFusedOverflow:
    def test_int32_minimum_keeps_its_32_bits(self):
        """-2**31 in int32 deltas is a 32-bit magnitude, not a zero."""
        deltas = np.zeros((2, 32), dtype=np.int32)
        deltas[0, 0], deltas[0, 1], deltas[1, 3] = -(2**31), 5, -4
        for name in available_backends():
            lens, payload, offsets = get_backend(name).encode_with_offsets(deltas, 32)
            np.testing.assert_array_equal(lens, [32, 3], err_msg=name)
            decoded = get_backend(name).decode_blocks(
                lens, payload, 32, offsets=offsets
            )
            np.testing.assert_array_equal(decoded, deltas, err_msg=name)

    def test_classify_encode_rejects_33_bit_magnitudes(self):
        deltas = np.full((1, 8), 1 << 32, dtype=np.int64)
        for name in available_backends():
            with pytest.raises(OverflowError):
                get_backend(name).encode_with_offsets(deltas, 8)

    def test_reduce_fused_rejects_accumulated_overflow(self):
        """Two max-magnitude operands overflow only after accumulation."""
        deltas = np.full((1, 8), (1 << 32) - 1, dtype=np.int64)
        lens, payload, offsets = _two_pass_reference(deltas, 8)
        lens_mat = np.stack([lens, lens])
        offs_mat = np.stack([offsets, offsets])
        w = np.ones(2, dtype=np.int64)
        for name in available_backends():
            with pytest.raises(OverflowError):
                get_backend(name).reduce_fused(
                    lens_mat, offs_mat, [payload, payload], w, 8
                )


def test_reduce_fused_empty_and_single_operand_edges():
    """nb with zero payload bytes everywhere and k=1 pass through cleanly."""
    bs = 8
    zeros = np.zeros((3, bs), dtype=np.int64)
    lens, payload, offsets = _two_pass_reference(zeros, bs)
    for name in available_backends():
        out_lens, out_payload, out_offsets, zero_after = get_backend(
            name
        ).reduce_fused(
            np.stack([lens]),
            np.stack([offsets]),
            [payload],
            np.ones(1, dtype=np.int64),
            bs,
            track=True,
        )
        assert not out_lens.any() and out_payload.size == 0
        np.testing.assert_array_equal(
            out_offsets, payload_offsets(out_lens, bs)
        )
        assert np.asarray(zero_after, dtype=bool).all()
