"""Reference NumPy kernel backend (the default, always available).

This is the reworked hot path behind :mod:`repro.compression.encoding`.
Relative to the original in-module kernels it

* works on one :class:`~repro.kernels.plan.StreamLayout` per stream,
  whose staging regroups the payload by kind of byte — the sign bits of
  every non-constant block, each byte plane of the blocks that have it,
  each code length's residual bits — so a kernel moves every plane of
  every code length with one vectorised copy, and one gather (decode) or
  scatter (encode) moves the payload.  A layout is a pure function of the
  code lengths, built once per signature and shared: the encoder asks for
  the one of the stream it emits, a field hands its own to
  ``decode_blocks`` / ``reduce_fused``, and nothing about a stream is
  derived twice;
* takes all of a call's temporaries in one
  :meth:`~repro.kernels.arena.ScratchArena.take_many` from the
  thread-local arena, sized for the whole stream and sliced per group, so
  steady-state calls make no large allocations;
* moves payload bytes at word granularity: when ``block_size % 32 == 0``
  every row size and offset is a multiple of 4, so the staging gather /
  scatter runs on a ``uint32`` view with a 4× smaller index;
* runs every operation over the whole stream, never one block per NumPy
  inner loop: a block's ``bs`` sign bits (and one-bit residuals) are
  ``bs/8`` whole bytes, so one flat ``packbits`` / ``unpackbits`` serves
  every row, and decoded rows go back to grid order with one ``take`` by
  the staging's inverse order;
* reads byte planes straight off the magnitudes' bytes, packs eight
  residuals with one integer product, unpacks them through a sliding
  ``uint16`` window, and signs every row with one branchless xor/subtract;
* classifies a block by one OR-reduction over the ``uint32`` magnitudes
  the payload is built from, and folds in ``int32`` whenever the operands'
  code lengths prove the sum fits.

The emitted streams are byte-identical to the original implementation (and
to the Numba backend) — the wire format is pinned by the parity suite.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

from .arena import ScratchArena, bucket, get_arena
from .plan import Staging, StreamLayout, required_bits, stream_layout

__all__ = [
    "NAME",
    "MAX_CODE_LENGTH",
    "encode_with_offsets",
    "decode_blocks",
    "decode_selected",
    "reduce_fused",
    "make_reduce_fused",
    "block_words",
]

NAME = "numpy"

#: Magnitudes are stored in at most 32 bits, mirroring the 32-bit unsigned
#: integer arrays of fZ-light/cuSZp.
MAX_CODE_LENGTH = 32

_INT32_MAX = (1 << 31) - 1

_OVERFLOW_MSG = (
    "prediction delta exceeds 32-bit magnitude; the error bound is too "
    "tight for this data's dynamic range"
)


# --------------------------------------------------------------------- #
# staging: one gather in, one scatter out
# --------------------------------------------------------------------- #
#: where byte ``k`` of a native ``uint32`` sits in its four bytes
_BYTE = (0, 1, 2, 3) if sys.byteorder == "little" else (3, 2, 1, 0)
#: the low ``r`` bytes of a native ``uint64``, most significant first
_LOW_BYTES = [
    slice(r - 1, None, -1) if sys.byteorder == "little" else slice(8 - r, None)
    for r in range(8)
]
#: per residual width ``r``, the weights that merge eight ``r``-bit values
#: into one big-endian ``8·r``-bit word
_MERGE = [
    np.left_shift(np.uint64(1), np.arange(7, -1, -1, dtype=np.uint64) * np.uint64(r))
    for r in range(8)
]


def _word_view(payload: np.ndarray, layout: StreamLayout) -> np.ndarray | None:
    """``uint32`` view of ``payload`` when the geometry/alignment allows it.

    With ``block_size % 32 == 0`` every row occupies ``(bs//8)·(1+c)``
    bytes — a multiple of 4 — so all offsets are word-aligned; the only
    runtime requirement left is that the buffer itself starts on a 4-byte
    boundary (NumPy allocations do; arbitrary caller slices may not).
    """
    if layout.unit != 4 or payload.size % 4 or not payload.flags.c_contiguous:
        return None
    words = payload.view(np.uint32)
    return words if words.flags.aligned else None


def _in_units(
    payload: np.ndarray, layout: StreamLayout, arena: ScratchArena
) -> np.ndarray:
    """``payload`` as an array of the layout's ``unit``-byte elements: the
    word view, or, for a payload that does not start on a word boundary
    (a caller's slice), a word-aligned copy in scratch."""
    if layout.unit == 1:
        return payload
    words = _word_view(payload, layout)
    if words is None:
        words = arena.take("mv.words", -(-payload.size // 4), np.uint32)
        words.view(np.uint8)[: payload.size] = payload
    return words


def _index(layout: StreamLayout, staging: Staging, arena: ScratchArena) -> np.ndarray:
    """The staging index: the layout's own, or built into scratch."""
    if staging.index is not None:
        return staging.index
    n = staging.nbytes // layout.unit
    return layout.staged_index(staging, arena.take("mv.idx", bucket(n), np.intp)[:n])


#: the unsigned type of ``bs/8`` bytes, for the block sizes one word holds
_WORD = {8: np.uint8, 16: np.uint16, 32: np.uint32, 64: np.uint64}


def block_words(grid: np.ndarray) -> np.ndarray:
    """One unsigned word per row of the ``(n, bs)`` integer ``grid``, zero
    iff the row is all zeros.

    One flat compare and one flat pack give every row's ``bs`` flags as
    ``bs/8`` whole bytes, read as one word when ``bs <= 64`` — where a
    row-wise ``any`` runs one row per NumPy inner loop.
    """
    n, bs = grid.shape
    bits = np.packbits(np.not_equal(grid, 0))
    if bs in _WORD:
        return bits.view(_WORD[bs])
    return np.bitwise_or.reduce(bits.reshape(n, bs // 8), axis=1)


# --------------------------------------------------------------------- #
# residual bits (the only per-group work)
# --------------------------------------------------------------------- #
def _encode_residual(high: np.ndarray, rem: int, out: np.ndarray) -> None:
    """Pack ``(ng, bs)`` residuals (each below ``2**rem``, ``rem > 1``) into
    the ``(ng, rem·bs/8)`` rows ``out``, ``rem`` bits per element, MSB
    first."""
    # eight rem-bit residuals are rem bytes, big-endian: one product with
    # the weights 2**(rem·(7-j)) merges them, and the low rem bytes of the
    # 64-bit word are the packed bits
    ng, bs = high.shape
    words = (high.reshape(-1, 8) @ _MERGE[rem]).view(np.uint8)
    out.reshape(ng, bs // 8, rem)[...] = words.reshape(ng, bs // 8, 8)[
        :, :, _LOW_BYTES[rem]
    ]


@lru_cache(maxsize=None)
def _residual_window(rem: int, bs: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each element's ``rem`` residual bits sit in the packed bytes.

    Returns the byte each element's bits start in and the right shift that
    brings them to the bottom of a ``uint16`` window over that byte and
    the next.  At most 7 × (block sizes in use) entries, a few hundred
    bytes each.
    """
    bitpos = np.arange(bs, dtype=np.int64) * rem
    shift = (16 - rem - (bitpos & 7)).astype(np.uint16)
    first_byte = bitpos >> 3
    for shared in (first_byte, shift):
        shared.setflags(write=False)
    return first_byte, shift


def _decode_residual(
    packed: np.ndarray, rem: int, bs: int, w16: np.ndarray
) -> np.ndarray:
    """The ``(ng, bs)`` residuals packed ``rem`` bits each (``rem > 1``)
    in the flat bytes ``packed``.

    ``w16`` is flat ``uint16`` scratch of at least ``packed.size``.
    """
    # sliding uint16 window over the packed residual bytes: each element's
    # rem bits live in (at most) two adjacent bytes, so one gather + one
    # variable shift recovers every value.  Built over the whole group at
    # once: a row's last window takes the next row's first byte, which
    # that row's last element (it ends on the row's last bit) never reads
    w = w16[: packed.size]
    np.left_shift(packed, 8, out=w, dtype=np.uint16)
    w[:-1] |= packed[1:]
    first_byte, shift = _residual_window(rem, bs)
    high = w.reshape(-1, rem * (bs // 8))[:, first_byte]
    high >>= shift
    high &= (1 << rem) - 1
    return high


# --------------------------------------------------------------------- #
# public kernels
# --------------------------------------------------------------------- #
def encode_with_offsets(
    deltas: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-length-encode ``(n_blocks, bs)`` deltas; offsets come free.

    The offsets are the emitted stream's shared layout's, hence read-only.
    """
    deltas = np.ascontiguousarray(deltas)
    nb, bs = deltas.shape
    if nb == 0:
        lens = np.zeros(0, dtype=np.uint8)
        return lens, np.empty(0, dtype=np.uint8), stream_layout(lens, bs).offsets
    # A block's code length is the bit length of its largest magnitude,
    # which is the bit length of the OR of all of them: one reduction over
    # the magnitudes the payload is built from anyway.
    arena = get_arena()
    mags, negative, staged_mags = arena.take_many((
        ("enc.mags", deltas.shape, np.uint32),
        ("enc.signs", deltas.shape, np.bool_),
        ("enc.smags", deltas.shape, np.uint32),
    ))
    if deltas.dtype == np.int32:
        # abs maps -2**31 onto itself, whose uint32 view is exactly 2**31
        np.abs(deltas, out=mags.view(np.int32))
        block_or = np.bitwise_or.reduce(mags, axis=1)
    else:
        m64 = arena.take("enc.mags64", deltas.shape, np.int64)
        np.abs(deltas.astype(np.int64, copy=False), out=m64)
        block_or = np.bitwise_or.reduce(m64, axis=1)
        # abs(-2**63) stays negative, so the range test catches it too
        if not 0 <= int(np.bitwise_or.reduce(block_or)) < 1 << MAX_CODE_LENGTH:
            raise OverflowError(_OVERFLOW_MSG)
        mags[...] = m64
    code_lengths = required_bits(block_or)
    # whoever decodes this stream next finds the layout built
    layout = stream_layout(code_lengths, bs)
    offsets = layout.offsets
    total = int(offsets[-1])
    payload = np.empty(total, dtype=np.uint8)
    if total == 0:
        return code_lengths, payload, offsets
    staging = layout.staging
    staged = arena.take("enc.pay", bucket(total), np.uint8)
    live, order = staging.live, staging.order[staging.live :]
    # the live rows' magnitudes and sign bits, staged: one gather each (a
    # block's bs sign bits are bs/8 whole bytes, so one flat pack makes
    # every row's); the order is valid, so "clip" spares the bounds check
    # and the copy of out= a checked take makes
    mags.take(order, axis=0, out=staged_mags[live:], mode="clip")
    np.less(deltas, 0, out=negative)
    np.packbits(negative).reshape(nb, bs // 8).take(
        order,
        axis=0,
        out=staged[: (nb - live) * (bs // 8)].reshape(nb - live, bs // 8),
        mode="clip",
    )
    # every byte plane with one copy for all the rows that have it
    m8 = staged_mags.view(np.uint8).reshape(nb, bs, 4)
    for k, (first, lo) in enumerate(staging.planes):
        plane = staged[lo : lo + (nb - first) * bs].reshape(nb - first, bs)
        # the lowest plane by the cast (it keeps the low byte), contiguous
        plane[...] = m8[first:, :, _BYTE[k]] if k else staged_mags[first:]
    # the residual bits: byte c // 8 of every magnitude, below 2**(c % 8)
    for c, ng, _, _, r0, lo in staging.groups:
        if lo >= 0:
            rem = c & 7
            out = staged[lo : lo + ng * rem * (bs // 8)]
            if rem == 1:
                # below 2**c, bit c - 1 is set iff the magnitude reaches
                # 2**(c - 1): one compare and one flat pack (the sign
                # flags are spent, so they hold the bits)
                top = negative[:ng]
                np.greater_equal(staged_mags[r0 : r0 + ng], 1 << (c - 1), out=top)
                out[...] = np.packbits(top)
            else:
                _encode_residual(
                    m8[r0 : r0 + ng, :, _BYTE[c >> 3]],
                    rem,
                    out.reshape(ng, rem * (bs // 8)),
                )
    # one scatter puts every staged byte where the stream keeps it
    index, staged = _index(layout, staging, arena), staged[:total]
    if layout.unit == 4:  # both fresh, so word-aligned
        payload.view(np.uint32)[index] = staged.view(np.uint32)
    else:
        payload[index] = staged
    return code_lengths, payload, offsets


def decode_blocks(
    code_lengths: np.ndarray,
    payload: np.ndarray,
    block_size: int,
    offsets: np.ndarray | None = None,
    out: np.ndarray | None = None,
    layout: StreamLayout | None = None,
) -> np.ndarray:
    """Decode the full block set; see :func:`repro.compression.encoding.decode_blocks`.

    ``layout`` is the stream's :class:`~repro.kernels.plan.StreamLayout`
    when the caller holds it (a field carries its own); otherwise it is
    looked up, or built, from the code lengths.
    """
    code_lengths = np.asarray(code_lengths, dtype=np.uint8)
    nb = code_lengths.size
    if layout is None:
        layout = stream_layout(code_lengths, block_size, offsets)
    elif layout.n_blocks != nb or layout.block_size != block_size:
        raise ValueError(
            f"layout describes {layout.n_blocks} blocks of {layout.block_size}, "
            f"the stream has {nb} of {block_size}"
        )
    max_c = layout.max_c
    if out is None:
        dtype = np.int32 if max_c <= 31 else np.int64
        out = np.empty((nb, block_size), dtype=dtype)
    else:
        if out.shape != (nb, block_size):
            raise ValueError(
                f"out has shape {out.shape}, expected {(nb, block_size)}"
            )
        if out.dtype == np.int32 and max_c > 31:
            raise ValueError("int32 out cannot hold 32-bit magnitudes")
        if out.dtype not in (np.int32, np.int64):
            raise ValueError(f"out dtype must be int32/int64, got {out.dtype}")
    _decode_grouped(layout, payload, out, get_arena())
    return out


def decode_selected(
    indices: np.ndarray,
    code_lengths: np.ndarray,
    offsets: np.ndarray,
    payload: np.ndarray,
    block_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode only ``indices`` blocks (any order, duplicates allowed).

    ``out``, when given, must be ``(len(indices), block_size)`` int64 and
    is fully overwritten — the homomorphic hot loop passes an arena view
    here so steady-state subset decodes allocate nothing.
    """
    indices = np.asarray(indices, dtype=np.int64)
    code_lengths = np.asarray(code_lengths, dtype=np.uint8)
    if out is None:
        out = np.empty((indices.size, block_size), dtype=np.int64)
    elif out.shape != (indices.size, block_size) or out.dtype != np.int64:
        raise ValueError(
            f"out must be {(indices.size, block_size)} int64, got "
            f"{out.shape} {out.dtype}"
        )
    if indices.size == 0:
        return out
    # a selection's layout is as particular as the selection: built, used
    # once, not cached
    layout = StreamLayout(
        code_lengths[indices], block_size, offsets, blocks=indices
    )
    _decode_grouped(layout, payload, out, get_arena())
    return out


def _decode_grouped(
    layout: StreamLayout,
    payload: np.ndarray,
    out: np.ndarray,
    arena: ScratchArena,
) -> None:
    """Shared decode driver: stage the payload with one gather, move every
    byte plane into the staged rows with one copy each, add each group's
    residual bits, apply every sign at once, and put the rows where
    ``out`` keeps them with one scatter."""
    staging = layout.staging
    (n, bs), dtype = out.shape, out.dtype
    live = staging.live
    units = _in_units(payload, layout, arena)
    requests = (
        ("dec.rows", out.shape, dtype),
        ("dec.sign", out.shape, dtype),
        ("dec.w16", out.size, np.uint16),
        ("dec.pay", bucket(staging.nbytes // layout.unit), units.dtype),
    )
    if dtype != np.int32:
        requests += (("dec.acc", out.shape, np.uint32),)
    rows, sign, w16, staged, *acc = arena.take_many(requests)
    staged = staged[: staging.nbytes // layout.unit]
    staged = units.take(_index(layout, staging, arena), out=staged).view(np.uint8)
    # magnitudes < 2**31 when the rows are int32, so they double as the
    # uint32 accumulator
    acc = acc[0] if acc else rows.view(np.uint32)
    acc8 = acc.view(np.uint8).reshape(n, bs, 4)
    for k, (first, lo) in enumerate(staging.planes):
        plane = staged[lo : lo + (n - first) * bs].reshape(n - first, bs)
        # the lowest plane as whole words clears the bytes above it
        if k:
            acc8[first:, :, _BYTE[k]] = plane
        else:
            acc[first:] = plane
    for c, ng, _, _, r0, lo in staging.groups:
        if lo >= 0:
            rem, r1 = c & 7, r0 + ng
            packed = staged[lo : lo + ng * rem * (bs // 8)]
            if rem == 1:  # a row's bs bits are bs/8 whole bytes
                high = np.unpackbits(packed).reshape(ng, bs)
            else:
                high = _decode_residual(packed, rem, bs, w16)
            if c >> 3:
                acc8[r0:r1, :, _BYTE[c >> 3]] = high
            else:
                acc[r0:r1] = high
    rows[:live] = 0
    value, m = rows[live:], sign[live:]
    if dtype != np.int32:
        value[...] = acc[live:]
    # branchless sign: x -> (x ^ m) - m with m = -s; a row's bs sign bits
    # are bs/8 whole bytes, so one flat unpack gives every row's
    np.negative(
        np.unpackbits(staged[: (n - live) * (bs // 8)]).reshape(n - live, bs),
        out=m,
        dtype=dtype,
    )
    np.bitwise_xor(value, m, out=value)
    np.subtract(value, m, out=value)
    rows.take(staging.inverse, axis=0, out=out, mode="clip")


# --------------------------------------------------------------------- #
# the k-way reduce
# --------------------------------------------------------------------- #
def make_reduce_fused(decode_blocks_fn, encode_fn):
    """Build the dense k-way ``reduce_fused`` on a decode and an encode.

    The returned callable implements the dense full-stream strategy —
    decode each operand contiguously, accumulate with integer weights,
    re-encode once.  This backend's :func:`reduce_fused` is it on its own
    kernels; the ``bench-kernels`` fold split builds it on stopwatched
    ones.

    ``offs_mat`` is only ever indexed by operand, so any sequence of ``k``
    offset arrays will do.  ``layouts`` (the operands' stream layouts, when
    the caller holds them) reach ``decode_blocks_fn``.

    The fold accumulates in int32 whenever the operands' widest code
    lengths prove every partial sum fits (``Σ |w_j|·(2**max_c_j − 1) ≤
    2**31 − 1``), in the caller's ``acc`` memory, and in int64 otherwise;
    the emitted stream is the same either way.
    """

    def reduce_fused(
        lens_mat: np.ndarray,
        offs_mat: np.ndarray,
        payloads: list[np.ndarray],
        weights: np.ndarray,
        block_size: int,
        acc: np.ndarray | None = None,
        track: bool = False,
        layouts: list[StreamLayout | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        k, nb = lens_mat.shape
        if acc is not None and (
            acc.shape != (nb, block_size) or acc.dtype != np.int64
        ):
            raise ValueError(
                f"acc must be {(nb, block_size)} int64, got "
                f"{acc.shape} {acc.dtype}"
            )
        w_list = weights.tolist()
        widths = [
            int(lens.max(initial=0)) if layout is None else layout.max_c
            for lens, layout in zip(lens_mat, layouts or [None] * k)
        ]
        # every partial sum is at most sum_j |w_j|·(2**c_j - 1) in magnitude;
        # when that fits 31 bits the whole fold runs in int32
        bound = sum(abs(w) * ((1 << c) - 1) for w, c in zip(w_list, widths))
        dtype = np.int32 if bound <= _INT32_MAX else np.int64
        if acc is None:
            acc = np.empty((nb, block_size), dtype=dtype)
        elif dtype == np.int32:
            # the caller's buffer read as int32: no second accumulator
            acc = acc.reshape(-1).view(np.int32)[: nb * block_size]
            acc = acc.reshape(nb, block_size)
        scratch = get_arena().take("rf.dec", (nb, block_size), dtype)
        zero_after = np.empty((k, nb), dtype=bool) if track else None
        if track:
            # Z-matrix row 0 is operand 0's constant blocks (a non-zero
            # block times a non-zero weight stays non-zero), row k-1 the
            # output's (set below); only the rows between scan the sum
            if w_list[0]:
                np.equal(lens_mat[0], 0, out=zero_after[0])
            else:
                zero_after[0] = True
        started = False
        for j, w in enumerate(w_list):
            if w != 0:
                # the first contributor decodes straight into the accumulator
                decoded = decode_blocks_fn(
                    lens_mat[j],
                    payloads[j],
                    block_size,
                    offsets=offs_mat[j],
                    out=scratch if started else acc,
                    layout=None if layouts is None else layouts[j],
                )
                if w != 1:
                    decoded *= w
                if started:
                    acc += decoded
                started = True
            if track and 0 < j < k - 1:
                if w != 0:
                    np.equal(block_words(acc), 0, out=zero_after[j])
                else:  # an operand that adds nothing leaves the sum as it was
                    zero_after[j] = zero_after[j - 1]
        if not started:
            acc.fill(0)
        out_lengths, payload, offsets = encode_fn(acc, block_size)
        if track:
            np.equal(out_lengths, 0, out=zero_after[k - 1])
        return out_lengths, payload, offsets, zero_after

    return reduce_fused


#: Dense k-way homomorphic accumulate for the reference backend.  See
#: :func:`make_reduce_fused` for the contract; the Numba backend replaces
#: this with a single-sweep JIT kernel (one pass over each block across all
#: k operands, ``prange`` over thread-blocks).
reduce_fused = make_reduce_fused(decode_blocks, encode_with_offsets)
