"""Per-block scalar kernels: the JIT-compilable reference implementation.

These functions are written in the restricted subset of Python that Numba's
``nopython`` mode compiles — plain loops, scalar arithmetic, no fancy
indexing.  They serve two roles:

* :mod:`repro.kernels.numba_backend` JIT-compiles them verbatim into the
  optional high-performance backend;
* the parity test suite runs them **uncompiled** on small inputs, so the
  exact bit layout they implement is exercised by CI even on hosts without
  Numba.

The byte layout per non-constant block (code length ``c``, block size
``bs``, ``unit = bs // 8``) is fZ-light's, identical to the NumPy backend:

1. ``unit`` sign bytes — one bit per element, MSB-first;
2. ``c // 8`` full byte planes — plane ``k`` holds byte ``k`` (little-
   endian) of every element's magnitude, elements in order;
3. if ``c % 8 != 0``: the residual ``c % 8`` bits of every element,
   bit-packed MSB-first into ``unit * (c % 8)`` bytes.
"""

from __future__ import annotations

try:  # pragma: no cover - the JIT path is exercised in the numba CI job
    from numba import prange
except ImportError:  # uncompiled: prange degrades to a plain serial range
    prange = range

__all__ = [
    "encode_payload_loop",
    "decode_into_loop",
    "classify_blocks_loop",
    "encode_from_deltas_loop",
    "reduce_accumulate_loop",
]


def encode_payload_loop(mags, signs, code_lengths, offsets, payload):
    """Serialise every non-constant block's payload bytes.

    Parameters
    ----------
    mags : ``(n_blocks, bs)`` uint32 magnitudes.
    signs : ``(n_blocks, bs)`` bool, True for negative deltas.
    code_lengths : ``(n_blocks,)`` uint8.
    offsets : ``(n_blocks + 1,)`` int64 payload offsets.
    payload : ``(offsets[-1],)`` uint8 output buffer.
    """
    n_blocks, bs = mags.shape
    unit = bs // 8
    for i in range(n_blocks):
        c = int(code_lengths[i])
        if c == 0:
            continue
        pos = int(offsets[i])
        for b in range(unit):
            byte = 0
            base = b * 8
            for j in range(8):
                byte = (byte << 1) | (1 if signs[i, base + j] else 0)
            payload[pos] = byte
            pos += 1
        byte_count = c // 8
        rem = c % 8
        for k in range(byte_count):
            shift = 8 * k
            for e in range(bs):
                payload[pos] = (int(mags[i, e]) >> shift) & 0xFF
                pos += 1
        if rem:
            shift = 8 * byte_count
            mask = (1 << rem) - 1
            accum = 0
            nbits = 0
            for e in range(bs):
                accum = (accum << rem) | ((int(mags[i, e]) >> shift) & mask)
                nbits += rem
                while nbits >= 8:
                    nbits -= 8
                    payload[pos] = (accum >> nbits) & 0xFF
                    pos += 1


def decode_into_loop(indices, code_lengths, offsets, payload, out, sign_buf):
    """Decode blocks ``indices`` into the rows of ``out``.

    Parameters
    ----------
    indices : ``(n_sel,)`` int64 block positions (any order, duplicates ok).
    code_lengths : ``(n_blocks,)`` uint8 for the full stream.
    offsets : ``(n_blocks + 1,)`` int64 for the full stream.
    payload : ``(offsets[-1],)`` uint8.
    out : ``(n_sel, bs)`` signed integer output, fully overwritten.
    sign_buf : ``(bs,)`` uint8 scratch row (hoisted so the loop allocates
        nothing).
    """
    n_sel = indices.shape[0]
    bs = out.shape[1]
    unit = bs // 8
    for s in range(n_sel):
        i = int(indices[s])
        c = int(code_lengths[i])
        if c == 0:
            for e in range(bs):
                out[s, e] = 0
            continue
        pos = int(offsets[i])
        for b in range(unit):
            byte = int(payload[pos])
            pos += 1
            base = b * 8
            for j in range(8):
                sign_buf[base + j] = (byte >> (7 - j)) & 1
        for e in range(bs):
            out[s, e] = 0
        byte_count = c // 8
        rem = c % 8
        for k in range(byte_count):
            shift = 8 * k
            for e in range(bs):
                out[s, e] |= int(payload[pos]) << shift
                pos += 1
        if rem:
            shift = 8 * byte_count
            mask = (1 << rem) - 1
            accum = 0
            nbits = 0
            for e in range(bs):
                while nbits < rem:
                    accum = (accum << 8) | int(payload[pos])
                    pos += 1
                    nbits += 8
                nbits -= rem
                out[s, e] |= ((accum >> nbits) & mask) << shift
        for e in range(bs):
            if sign_buf[e]:
                out[s, e] = -out[s, e]


# --------------------------------------------------------------------- #
# fused single-pass kernels (classification + serialisation, k-way reduce)
# --------------------------------------------------------------------- #
def classify_blocks_loop(deltas, code_lengths):
    """Per-block classification: write each block's code length.

    One sweep over ``deltas`` computes the max magnitude and its bit width
    per block with no materialised ``abs``/``max`` temporaries.  Thread-
    blocks (rows) are independent, so the outer loop parallelises with
    ``prange`` under the JIT.

    Parameters
    ----------
    deltas : ``(n_blocks, bs)`` signed integer deltas.
    code_lengths : ``(n_blocks,)`` uint8 output, fully overwritten.  Values
        may exceed 32; the caller is responsible for the overflow check
        (``code_lengths.max() > MAX_CODE_LENGTH``).
    """
    n_blocks, bs = deltas.shape
    for i in prange(n_blocks):
        m = 0
        for e in range(bs):
            v = int(deltas[i, e])
            if v < 0:
                v = -v
            if v > m:
                m = v
        c = 0
        while m > 0:
            c += 1
            m >>= 1
        code_lengths[i] = c


def encode_from_deltas_loop(deltas, code_lengths, offsets, payload):
    """Fused serialisation: emit every block's payload straight from deltas.

    Signs and magnitudes are computed inline per element — no ``abs``
    array, no sign mask, no per-group gathers.  Combined with
    :func:`classify_blocks_loop` this is the Numba backend's single-sweep
    ``encode_with_offsets``: one cheap metadata pass, one payload pass,
    zero full-size temporaries.  Blocks are independent (each writes its
    own ``[offsets[i], offsets[i+1])`` byte range), so the outer loop is a
    ``prange`` under the JIT.

    The byte layout is identical to :func:`encode_payload_loop`.
    """
    n_blocks, bs = deltas.shape
    unit = bs // 8
    for i in prange(n_blocks):
        c = int(code_lengths[i])
        if c == 0:
            continue
        pos = int(offsets[i])
        for b in range(unit):
            byte = 0
            base = b * 8
            for j in range(8):
                byte <<= 1
                if deltas[i, base + j] < 0:
                    byte |= 1
            payload[pos] = byte
            pos += 1
        byte_count = c // 8
        rem = c % 8
        for k in range(byte_count):
            shift = 8 * k
            for e in range(bs):
                v = int(deltas[i, e])
                if v < 0:
                    v = -v
                payload[pos] = (v >> shift) & 0xFF
                pos += 1
        if rem:
            shift = 8 * byte_count
            mask = (1 << rem) - 1
            accum = 0
            nbits = 0
            for e in range(bs):
                v = int(deltas[i, e])
                if v < 0:
                    v = -v
                accum = (accum << rem) | ((v >> shift) & mask)
                nbits += rem
                while nbits >= 8:
                    nbits -= 8
                    payload[pos] = (accum >> nbits) & 0xFF
                    pos += 1


def reduce_accumulate_loop(
    lens_mat,
    offs_mat,
    payload_cat,
    bases,
    weights,
    acc,
    out_lengths,
    zero_after,
    track,
):
    """Fused k-way homomorphic accumulate + classification, one block sweep.

    For every block the loop decodes each contributing operand's elements
    *in place* (sign bits and magnitude planes are random-accessed straight
    from the payload bytes — no scratch rows), accumulates the weighted
    integer predictions into ``acc``, and classifies the result's code
    length — so a block's working set is touched once across all ``k``
    operands instead of once per operand.  Blocks are independent; the
    outer loop is a ``prange`` over thread-blocks under the JIT.

    Parameters
    ----------
    lens_mat : ``(k, n_blocks)`` uint8 code lengths per operand.
    offs_mat : ``(k, n_blocks + 1)`` int64 payload offsets per operand.
    payload_cat : concatenated uint8 payloads of all operands.
    bases : ``(k,)`` int64 — operand ``j``'s payload starts at ``bases[j]``.
    weights : ``(k,)`` int64 integer weights (0 drops the operand).
    acc : ``(n_blocks, bs)`` int64 accumulator, fully overwritten.
    out_lengths : ``(n_blocks,)`` uint8 result code lengths, fully
        overwritten (caller checks the > 32 overflow).
    zero_after : ``(k, n_blocks)`` uint8 — when ``track`` is true, entry
        ``[j, i]`` records whether block ``i``'s partial sum through
        operands ``0..j`` is identically zero (the pairwise-fold
        "constant partial" flag the pipeline statistics are derived from).
    track : bool — skip the ``zero_after`` row scans when false.
    """
    k, n_blocks = lens_mat.shape
    bs = acc.shape[1]
    unit = bs // 8
    for i in prange(n_blocks):
        for e in range(bs):
            acc[i, e] = 0
        for j in range(k):
            w = int(weights[j])
            c = int(lens_mat[j, i])
            if w != 0 and c != 0:
                pos = int(bases[j]) + int(offs_mat[j, i])
                data_base = pos + unit
                byte_count = c // 8
                rem = c % 8
                resid_base = data_base + byte_count * bs
                shift_hi = 8 * byte_count
                mask = (1 << rem) - 1
                for e in range(bs):
                    m = 0
                    for kk in range(byte_count):
                        m |= int(payload_cat[data_base + kk * bs + e]) << (
                            8 * kk
                        )
                    if rem:
                        bitpos = e * rem
                        b0 = resid_base + (bitpos >> 3)
                        off = bitpos & 7
                        if off + rem <= 8:
                            hi = (int(payload_cat[b0]) >> (8 - off - rem)) & mask
                        else:
                            w16 = (int(payload_cat[b0]) << 8) | int(
                                payload_cat[b0 + 1]
                            )
                            hi = (w16 >> (16 - off - rem)) & mask
                        m |= hi << shift_hi
                    sbyte = int(payload_cat[pos + (e >> 3)])
                    if (sbyte >> (7 - (e & 7))) & 1:
                        m = -m
                    acc[i, e] += w * m
            if track:
                z = 1
                for e in range(bs):
                    if acc[i, e] != 0:
                        z = 0
                        break
                zero_after[j, i] = z
        m = 0
        for e in range(bs):
            v = acc[i, e]
            if v < 0:
                v = -v
            if v > m:
                m = v
        c = 0
        while m > 0:
            c += 1
            m >>= 1
        out_lengths[i] = c
