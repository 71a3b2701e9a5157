"""Backend parity: every backend emits byte-identical streams.

The homomorphic operators and the CRC-validated wire format assume the
fixed-length stream for a given input is *unique* — backend choice is pure
execution policy.  This suite races every available backend (plus the
uncompiled pure-Python scalar loops that the Numba backend JIT-compiles)
against the NumPy reference on randomized inputs and asserts bytewise
equality of payloads and exact equality of decodes.

On hosts without numba the scalar loops still run uncompiled, so the exact
layout the JIT backend would produce is exercised by CI regardless.
"""

import numpy as np
import pytest

from repro.kernels import _kernels_py, dispatch
from repro.kernels.dispatch import available_backends, get_backend

BLOCK_SIZES = (8, 32, 64)


@pytest.fixture(autouse=True)
def fresh_dispatch():
    dispatch._reset_for_tests()
    yield
    dispatch._reset_for_tests()


def _random_blocks(rng, nb, bs, max_c=32):
    """Blocks exercising every code length 0..max_c, extremes included."""
    c_target = rng.integers(0, max_c + 1, size=nb)
    deltas = np.zeros((nb, bs), dtype=np.int64)
    for i, c in enumerate(c_target):
        if c == 0:
            continue
        hi = (1 << int(c)) - 1
        row = rng.integers(0, hi + 1, size=bs)
        # force at least one element to need exactly c bits
        row[rng.integers(0, bs)] = rng.integers(1 << (int(c) - 1), hi + 1)
        deltas[i] = row * rng.choice([-1, 1], size=bs)
    return deltas


def _other_backends():
    return [name for name in available_backends() if name != "numpy"]


class TestBackendParity:
    @pytest.mark.parametrize("bs", BLOCK_SIZES)
    def test_all_backends_byte_identical(self, bs):
        rng = np.random.default_rng(bs)
        reference = get_backend("numpy")
        others = [get_backend(name) for name in _other_backends()]
        for trial in range(8):
            nb = int(rng.integers(0, 300))
            deltas = _random_blocks(rng, nb, bs)
            lens, payload, offsets = reference.encode_with_offsets(deltas, bs)
            ref_dec = reference.decode_blocks(lens, payload, bs, offsets=offsets)
            sel = (
                rng.integers(0, nb, size=int(rng.integers(1, 2 * nb)))
                if nb
                else np.zeros(0, dtype=np.int64)
            )
            ref_sel = reference.decode_selected(sel, lens, offsets, payload, bs)
            for backend in others:
                b_lens, b_payload, b_offsets = backend.encode_with_offsets(
                    deltas, bs
                )
                np.testing.assert_array_equal(b_lens, lens)
                np.testing.assert_array_equal(b_payload, payload)
                np.testing.assert_array_equal(b_offsets, offsets)
                np.testing.assert_array_equal(
                    backend.decode_blocks(lens, payload, bs, offsets=offsets),
                    ref_dec,
                )
                np.testing.assert_array_equal(
                    backend.decode_selected(sel, lens, offsets, payload, bs),
                    ref_sel,
                )

    def test_numpy_roundtrip_all_code_lengths(self):
        bs = 32
        reference = get_backend("numpy")
        for c in range(33):
            if c == 0:
                deltas = np.zeros((3, bs), dtype=np.int64)
            else:
                hi = (1 << c) - 1
                deltas = np.full((3, bs), hi, dtype=np.int64)
                deltas[1] = -deltas[1]
                deltas[2, ::2] = 1 << (c - 1)
            lens, payload, offsets = reference.encode_with_offsets(deltas, bs)
            expected_c = 0 if c == 0 else c
            assert int(lens.max(initial=0)) == expected_c
            out = reference.decode_blocks(lens, payload, bs, offsets=offsets)
            np.testing.assert_array_equal(out, deltas)


class TestScalarLoopParity:
    """The uncompiled JIT source must match the NumPy backend bitwise."""

    @pytest.mark.parametrize("bs", BLOCK_SIZES)
    def test_encode_loop_byte_identical(self, bs):
        rng = np.random.default_rng(bs + 1)
        reference = get_backend("numpy")
        deltas = _random_blocks(rng, 60, bs)
        lens, payload, offsets = reference.encode_with_offsets(deltas, bs)
        loop_payload = np.zeros_like(payload)
        _kernels_py.encode_payload_loop(
            np.abs(deltas).astype(np.uint32),
            deltas < 0,
            lens,
            offsets,
            loop_payload,
        )
        np.testing.assert_array_equal(loop_payload, payload)

    @pytest.mark.parametrize("bs", BLOCK_SIZES)
    def test_decode_loop_matches(self, bs):
        rng = np.random.default_rng(bs + 2)
        reference = get_backend("numpy")
        deltas = _random_blocks(rng, 60, bs)
        lens, payload, offsets = reference.encode_with_offsets(deltas, bs)
        out = np.empty((60, bs), dtype=np.int64)
        _kernels_py.decode_into_loop(
            np.arange(60, dtype=np.int64),
            lens,
            offsets,
            payload,
            out,
            np.empty(bs, dtype=np.uint8),
        )
        np.testing.assert_array_equal(out, deltas)
        # unsorted + duplicated subset through the same loop
        sel = rng.integers(0, 60, size=100)
        out_sel = np.empty((100, bs), dtype=np.int64)
        _kernels_py.decode_into_loop(
            sel.astype(np.int64),
            lens,
            offsets,
            payload,
            out_sel,
            np.empty(bs, dtype=np.uint8),
        )
        np.testing.assert_array_equal(out_sel, deltas[sel])


class TestWireFormatUnchanged:
    def test_crc_validated_roundtrip_per_backend(self):
        """Serialise with each backend's stream: CRCs must verify and the
        bytes must agree — the chaos suite's integrity checks depend on
        streams being backend-independent."""
        from repro.compression.format import from_bytes
        from repro.compression.fzlight import FZLight
        from repro.kernels.dispatch import use_backend

        data = np.cumsum(
            np.random.default_rng(5).standard_normal(4096)
        ).astype(np.float32)
        comp = FZLight()
        blobs = {}
        for name in available_backends():
            with use_backend(name):
                field = comp.compress(data, rel_eb=1e-3)
                blobs[name] = field.to_bytes()
        reference = blobs.pop("numpy")
        for name, blob in blobs.items():
            assert blob == reference, name
        restored = from_bytes(reference)
        out = comp.decompress(restored)
        assert np.max(np.abs(out - data)) <= restored.error_bound
