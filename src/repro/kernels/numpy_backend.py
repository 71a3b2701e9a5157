"""Reference NumPy kernel backend (the default, always available).

This is the reworked hot path behind :mod:`repro.compression.encoding`.
Relative to the original in-module kernels it

* walks one :class:`~repro.kernels.plan.StreamLayout` per stream — the
  groups of a single stable radix argsort, each with its row size, its
  slice / run copies / gather indices already worked out — instead of
  ``np.unique`` plus a full ``code_lengths == c`` scan and fancy gather
  per distinct code length.  A layout is a pure function of the code
  lengths, so it is built once per signature and shared: the encoder asks
  for the one of the stream it emits, a field hands its own to
  ``decode_blocks`` / ``reduce_fused``, and nothing about a stream is
  derived twice;
* serves every temporary (magnitude planes, sign masks, index matrices,
  per-group row buffers) from the thread-local scratch
  :class:`~repro.kernels.arena.ScratchArena`, so steady-state calls make no
  large allocations;
* moves payload bytes at word granularity: when ``block_size % 32 == 0``
  every row size and offset is a multiple of 4, so gathers/scatters run on
  a ``uint32`` view with 4× smaller index matrices — and groups whose
  blocks are consecutive in the stream collapse to plain slice copies
  (zero-copy views on the decode side);
* replaces the per-bit Horner loops of the residual-bit codec with
  ``packbits``/sliding-``uint16``-window kernels, and the masked
  ``np.negative(..., where=signs)`` with a branchless xor/subtract;
* keeps the gather/scatter index matrices it still has to build (streams
  too long for their layout to keep them) in ``int32`` whenever the payload
  is under 2 GiB, halving the index-construction traffic;
* classifies a block by one OR-reduction over the ``uint32`` magnitudes
  the payload is built from, and folds in ``int32`` whenever the operands'
  code lengths prove the sum fits.

The emitted streams are byte-identical to the original implementation (and
to the Numba backend) — the wire format is pinned by the parity suite.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arena import ScratchArena, get_arena
from .plan import (
    GroupLayout,
    StreamLayout,
    flat_row_indices,
    required_bits,
    stream_layout,
)

__all__ = [
    "NAME",
    "MAX_CODE_LENGTH",
    "encode_blocks",
    "encode_with_offsets",
    "classify_encode",
    "decode_blocks",
    "decode_selected",
    "reduce_fused",
    "make_reduce_fused",
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
# row movement: slice fast paths + word-granularity gather/scatter
# --------------------------------------------------------------------- #
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


def _row_indices(
    group: GroupLayout,
    layout: StreamLayout,
    unit: int,
    arena: ScratchArena,
) -> np.ndarray:
    """Flat ``unit``-byte indices of the group's rows in the payload.

    The layout's own when it keeps them at this granularity; otherwise
    built into scratch, in ``int32`` whenever the payload is under 2 GiB.
    """
    if unit == layout.unit:
        if group.index is not None:
            return group.index
        first = group.first
    else:  # a word-granular layout over a payload that is not word-aligned
        first = group.first * layout.unit
    idx_dtype = np.int32 if int(layout.offsets[-1]) < 2**31 else np.int64
    width = group.row_nbytes // unit
    out = arena.take("mv.idx", (group.ng, width), idx_dtype)
    return flat_row_indices(first, width, out=out)


def _gather_rows(
    group: GroupLayout,
    layout: StreamLayout,
    payload: np.ndarray,
    pay32: np.ndarray | None,
    arena: ScratchArena,
) -> np.ndarray:
    """Collect the group's ``(ng, row_nbytes)`` payload rows."""
    ng, row_nbytes = group.ng, group.row_nbytes
    if group.lo >= 0:
        return payload[group.lo : group.lo + ng * row_nbytes].reshape(
            ng, row_nbytes
        )
    rows = arena.take("mv.rows", (ng, row_nbytes), np.uint8)
    if group.runs is not None:
        flat = arena.take("mv.rows", ng * row_nbytes, np.uint8)
        for r0, r1, lo in group.runs:
            flat[r0:r1] = payload[lo : lo + r1 - r0]
    elif pay32 is not None:
        pay32.take(
            _row_indices(group, layout, 4, arena),
            out=arena.take("mv.rows", ng * row_nbytes // 4, np.uint32),
        )
    else:
        payload.take(
            _row_indices(group, layout, 1, arena),
            out=arena.take("mv.rows", ng * row_nbytes, np.uint8),
        )
    return rows


def _scatter_rows(
    group: GroupLayout,
    layout: StreamLayout,
    rows: np.ndarray,
    payload: np.ndarray,
    pay32: np.ndarray | None,
    arena: ScratchArena,
) -> None:
    """Place the group's encoded ``rows`` into the payload (inverse gather)."""
    if group.runs is not None:
        flat = rows.reshape(-1)
        for r0, r1, lo in group.runs:
            payload[lo : lo + r1 - r0] = flat[r0:r1]
    elif pay32 is not None:
        pay32[_row_indices(group, layout, 4, arena)] = rows.view(
            np.uint32
        ).reshape(-1)
    else:
        payload[_row_indices(group, layout, 1, arena)] = rows.reshape(-1)


# --------------------------------------------------------------------- #
# per-group codecs
# --------------------------------------------------------------------- #
def _encode_group(
    mags: np.ndarray,
    signs: np.ndarray,
    c: int,
    out: np.ndarray,
    arena: ScratchArena,
) -> None:
    """Encode equal-code-length blocks into ``(ng, bs//8·(1+c))`` rows."""
    ng, bs = mags.shape
    unit = bs // 8
    out[:, :unit] = np.packbits(signs, axis=1)
    byte_count, rem = c // 8, c % 8
    pos = unit
    for k in range(byte_count):
        if k == 0:
            out[:, pos : pos + bs] = mags  # unsafe cast keeps the low byte
        else:
            t = arena.take("cg.t32", (ng, bs), np.uint32)
            np.right_shift(mags, np.uint32(8 * k), out=t)
            out[:, pos : pos + bs] = t
        pos += bs
    if rem:
        t = arena.take("cg.t32", (ng, bs), np.uint32)
        np.right_shift(mags, np.uint32(8 * byte_count), out=t)
        np.bitwise_and(t, np.uint32((1 << rem) - 1), out=t)
        r8 = arena.take("cg.r8", (ng, bs), np.uint8)
        if rem == 1:
            r8[...] = t
            out[:, pos:] = np.packbits(r8, axis=1)
        else:
            # left-align the residual in its byte, then unpackbits exposes
            # exactly the rem leading bits of each element for one packbits
            np.left_shift(t, np.uint32(8 - rem), out=t)
            r8[...] = t
            bits = np.unpackbits(r8, axis=1).reshape(ng, bs, 8)[:, :, :rem]
            out[:, pos:] = np.packbits(bits.reshape(ng, bs * rem), axis=1)


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


def _decode_group(
    rows: np.ndarray,
    c: int,
    bs: int,
    target: np.ndarray,
    arena: ScratchArena,
) -> None:
    """Decode equal-code-length rows into signed ``target`` ``(ng, bs)``."""
    ng = rows.shape[0]
    unit = bs // 8
    byte_count, rem = c // 8, c % 8
    pos = unit
    if target.dtype == np.int32:
        # magnitudes < 2**31 here, so the int32 rows double as the u32
        # accumulator — one full write pass saved
        acc = target.view(np.uint32)
    else:
        acc = arena.take("cg.acc", (ng, bs), np.uint32)
    filled = False
    for k in range(byte_count):
        if k == 0:
            acc[...] = rows[:, pos : pos + bs]
            filled = True
        else:
            t = arena.take("cg.t32", (ng, bs), np.uint32)
            t[...] = rows[:, pos : pos + bs]
            np.left_shift(t, np.uint32(8 * k), out=t)
            np.bitwise_or(acc, t, out=acc)
        pos += bs
    if rem:
        if rem == 1:
            bits = np.unpackbits(np.ascontiguousarray(rows[:, pos:]), axis=1)
            high = bits
        else:
            # sliding uint16 window over the packed residual bytes: each
            # element's rem bits live in (at most) two adjacent bytes, so
            # one gather + one variable shift recovers every value
            packed = rows[:, pos:]
            w = arena.take("cg.w16", packed.shape, np.uint16)
            w[...] = packed
            np.left_shift(w, np.uint16(8), out=w)
            w[:, :-1] |= packed[:, 1:]
            first_byte, shift = _residual_window(rem, bs)
            g16 = arena.take("cg.g16", (ng, bs), np.uint16)
            w.take(first_byte, axis=1, out=g16)
            np.right_shift(g16, shift, out=g16)
            np.bitwise_and(g16, np.uint16((1 << rem) - 1), out=g16)
            high = g16
        if byte_count:
            t = arena.take("cg.t32", (ng, bs), np.uint32)
            t[...] = high
            np.left_shift(t, np.uint32(8 * byte_count), out=t)
            np.bitwise_or(acc, t, out=acc)
        else:
            acc[...] = high
            filled = True
    if not filled:  # c == 0 never reaches here; defensive only
        acc.fill(0)
    if target.dtype != np.int32:
        target[...] = acc
    # branchless sign: x -> (x ^ -s) - (-s)·... i.e. (x ^ m) - m, m = -s
    sign_bits = np.unpackbits(np.ascontiguousarray(rows[:, :unit]), axis=1)
    m = arena.take("cg.sgn", (ng, bs), target.dtype)
    m[...] = sign_bits
    np.negative(m, out=m)
    np.bitwise_xor(target, m, out=target)
    np.subtract(target, m, out=target)


# --------------------------------------------------------------------- #
# public kernels
# --------------------------------------------------------------------- #
def encode_with_offsets(
    deltas: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-length-encode ``(n_blocks, bs)`` deltas; offsets come free.

    The offsets are the emitted stream's shared layout's, hence read-only.
    """
    arena = get_arena()
    deltas = np.ascontiguousarray(deltas)
    nb, bs = deltas.shape
    if nb == 0:
        lens = np.zeros(0, dtype=np.uint8)
        return lens, np.empty(0, dtype=np.uint8), stream_layout(lens, bs).offsets
    # A block's code length is the bit length of its largest magnitude,
    # which is the bit length of the OR of all of them: one reduction over
    # the magnitudes the payload is built from anyway.
    mags = arena.take("enc.mags", deltas.shape, np.uint32)
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
    signs = arena.take("enc.signs", deltas.shape, np.bool_)
    np.less(deltas, 0, out=signs)
    pay32 = _word_view(payload, layout)
    for group in layout.groups:
        c, ng = group.c, group.ng
        if c == 0:
            continue
        if group.row0 >= 0:
            gm = mags[group.row0 : group.row0 + ng]
            gs = signs[group.row0 : group.row0 + ng]
        else:
            gm = arena.take("enc.gmags", (ng, bs), np.uint32)
            mags.take(group.rows, axis=0, out=gm)
            gs = arena.take("enc.gsigns", (ng, bs), np.bool_)
            signs.take(group.rows, axis=0, out=gs)
        if group.lo >= 0:
            # one run of blocks: encode straight into its payload slice
            rows = payload[group.lo : group.lo + ng * group.row_nbytes]
            _encode_group(gm, gs, c, rows.reshape(ng, group.row_nbytes), arena)
        else:
            rows = arena.take("enc.rows", (ng, group.row_nbytes), np.uint8)
            _encode_group(gm, gs, c, rows, arena)
            _scatter_rows(group, layout, rows, payload, pay32, arena)
    return code_lengths, payload, offsets


def encode_blocks(
    deltas: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    code_lengths, payload, _ = encode_with_offsets(deltas, block_size)
    return code_lengths, payload


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
    """Shared decode driver: one gather + one group decode per code length."""
    block_size = layout.block_size
    pay32 = _word_view(payload, layout)
    for group in layout.groups:
        ng = group.ng
        if group.c == 0:
            if group.row0 >= 0:
                out[group.row0 : group.row0 + ng] = 0
            else:
                out[group.rows] = 0
            continue
        rows = _gather_rows(group, layout, payload, pay32, arena)
        if group.row0 >= 0:  # output rows contiguous: in place
            target = out[group.row0 : group.row0 + ng]
            _decode_group(rows, group.c, block_size, target, arena)
        else:
            dec = arena.take("dec.rows", (ng, block_size), out.dtype)
            _decode_group(rows, group.c, block_size, dec, arena)
            out[group.rows] = dec


# --------------------------------------------------------------------- #
# fused entry points (classification + encode, k-way reduce)
# --------------------------------------------------------------------- #
#: The NumPy backend *is* the two-pass reference: classification runs as a
#: vectorised metadata pass and serialisation as grouped kernels, so the
#: fused entry point simply aliases :func:`encode_with_offsets`.  JIT/GPU
#: backends override this with a genuinely single-sweep kernel; the parity
#: suite pins all of them byte-identical to this function.
classify_encode = encode_with_offsets


def make_reduce_fused(decode_blocks_fn, classify_encode_fn, pass_layouts=False):
    """Build a reference k-way ``reduce_fused`` from a backend's own kernels.

    The returned callable implements the dense full-stream strategy —
    decode each operand contiguously, accumulate with integer weights,
    re-encode once — on top of whatever ``decode_blocks`` /
    ``classify_encode`` the backend provides.  The dispatch layer installs
    this as the fallback for backends (custom or stub) that do not ship a
    native fused kernel, so ``HZDynamic.reduce_fused`` can rely on the
    entry point existing everywhere.

    ``offs_mat`` is only ever indexed by operand, so any sequence of ``k``
    offset arrays will do.  ``layouts`` (the operands' stream layouts, when
    the caller holds them) reach ``decode_blocks_fn`` only with
    ``pass_layouts``; a backend that has no use for them ignores them.

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
        hand_over = pass_layouts and layouts is not None
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
                    **({"layout": layouts[j]} if hand_over else {}),
                )
                if w != 1:
                    decoded *= w
                if started:
                    acc += decoded
                started = True
            if track and 0 < j < k - 1:
                if w != 0:
                    np.logical_not(acc.any(axis=1), out=zero_after[j])
                else:  # an operand that adds nothing leaves the sum as it was
                    zero_after[j] = zero_after[j - 1]
        if not started:
            acc.fill(0)
        out_lengths, payload, offsets = classify_encode_fn(acc, block_size)
        if track:
            np.equal(out_lengths, 0, out=zero_after[k - 1])
        return out_lengths, payload, offsets, zero_after

    return reduce_fused


#: Dense k-way homomorphic accumulate for the reference backend.  See
#: :func:`make_reduce_fused` for the contract; the Numba backend replaces
#: this with a single-sweep JIT kernel (one pass over each block across all
#: k operands, ``prange`` over thread-blocks).
reduce_fused = make_reduce_fused(decode_blocks, classify_encode, pass_layouts=True)
