"""fZ-light: the ultra-fast error-bounded lossy compressor (paper §III-B).

fZ-light is the paper's from-scratch CPU compressor, built on three ideas:

1. **Multi-layer partitioning** — the input is first split into one large
   contiguous *thread-block* per worker, then into small fixed-size blocks,
   so workers always touch contiguous memory (unlike cuSZp's CPU port,
   where threads hop between distant small blocks).
2. **Fused quantisation + prediction** — a single pass turns floats into
   integer Lorenzo deltas, with only the *first* quantised value of each
   thread-block kept as a four-byte outlier (cuSZp pays one outlier per
   small block).
3. **Ultra-fast fixed-length encoding** — see
   :mod:`repro.compression.encoding`.

This Python port keeps the algorithm and data layout bit-for-bit faithful;
the "threads" of the paper map onto thread-blocks processed in one
vectorised sweep.  NumPy already saturates memory bandwidth: on a 2-vCPU
host a thread pool over block ranges lost to the single sweep at every
size up to 16 MB.  Concurrent callers are safe, since each thread sweeps
in its own scratch arena.

**Batched sweeps.**  A NumPy kernel call costs ~0.15 ms before it touches
any data, which is all a 2 KB ring block costs — so ``compress`` /
``decompress`` take a whole sequence and run each pipeline stage *once*
over the concatenated block grid.  Members are grouped by geometry
(``split_blocks`` yields at most two), every group's thread-blocks form two
regular runs that one strided kernel call covers, and the results are
sliced back into per-member fields / arrays that are byte-identical to
per-member calls.  A single array is simply a batch of one.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from ..kernels.arena import bucket, get_arena
from ..kernels.plan import stream_layout
from ..utils.validation import as_float_array, ensure_positive_int
from .common import code_dtype, resolve_error_bound
from .encoding import (
    DEFAULT_BLOCK_SIZE,
    decode_blocks,
    encode_into,
    ensure_codable,
)
from .format import (
    BlockStructure,
    CompressedField,
    QuantisedField,
    block_structure,
)

__all__ = [
    "FZLight",
    "compress",
    "decompress",
    "DEFAULT_THREADBLOCKS",
]

#: The paper fixes compression at 36 threads (two Broadwell sockets) for the
#: compressor studies and 18 (one socket) inside collectives.
DEFAULT_THREADBLOCKS = 36


#: decompress sums codes in int32 when they provably stay within this
_INT32_MAX = (1 << 31) - 1
#: Elements per prediction / prefix-sum slab: 128 KB of int64, so a slab
#: written by one kernel is still in cache when the next one reads it.
_SLAB_ELEMS = 1 << 14
#: Elements per kernel sweep.  A 64 K-element sweep already spends > 80 % of
#: its time on data rather than on per-call fixed cost, so longer sequences
#: are cut into several sweeps: scratch (here and in the kernels' arenas)
#: stays a fixed size instead of growing with the batch.
_SWEEP_ELEMS = 1 << 16


@dataclass(frozen=True)
class _Group:
    """Same-geometry members of one sweep, laid out back to back.

    Every thread-block but the last holds ``n // n_threadblocks`` elements
    and the last one takes the remainder, so a group's deltas live in two
    regular runs — a ``(members, heads, head_len)`` matrix and one tail row
    per member — and prediction / prefix sums take a few strided kernel
    calls per group however many members or thread-blocks it has.  Every
    integer the runs need is worked out once per geometry (:func:`_layout`).
    """

    structure: BlockStructure
    members: tuple[int, ...]  # positions in the caller's sequence
    elem0: int  # first element in the sweep's per-element buffers
    block0: int  # first row in the sweep's block grid
    n: int  # elements per member
    blocks: int  # blocks per member
    head_len: int  # elements per head thread-block (0: no head matrix)
    pad: int  # padded elements per head thread-block
    slabs: tuple[slice, ...]  # head thread-block columns, slab by slab
    run: int  # elements in the longest thread-block (one prefix sum)

    def rows(self, per_element: np.ndarray) -> np.ndarray:
        """This group's ``(members, n)`` slice of a sweep-wide element buffer."""
        m, n = len(self.members), self.n
        return per_element[self.elem0 : self.elem0 + m * n].reshape(m, n)

    def runs(self, grid: np.ndarray, rows: np.ndarray):
        """Yield ``(grid slots, thread-block columns, element view)`` per run.

        ``grid`` is the sweep's flat padded block grid, ``rows`` a
        ``(members, n)`` array of per-element values; both views are
        ``(members, thread-blocks, run length)``.  The head matrix comes in
        slabs of about :data:`_SLAB_ELEMS` elements so that a caller
        chaining several kernels over a slab finds it still cached.
        """
        m, bs = len(self.members), self.structure.block_size
        width = self.blocks * bs
        lo = self.block0 * bs
        g = grid[lo : lo + m * width].reshape(m, width)
        heads = self.structure.n_threadblocks - 1
        cut_e = cut_g = 0
        if self.head_len:
            cut_e, cut_g = heads * self.head_len, heads * self.pad
            g_heads = g[:, :cut_g].reshape(m, heads, self.pad)[:, :, : self.head_len]
            e_heads = rows[:, :cut_e].reshape(m, heads, self.head_len)
            for cols in self.slabs:
                yield g_heads[:, cols], cols, e_heads[:, cols]
        yield (
            g[:, None, cut_g : cut_g + self.n - cut_e],
            slice(heads, heads + 1),
            rows[:, None, cut_e:],
        )


class _Sweep(NamedTuple):
    """How one sweep's members lie in its buffers (see :func:`_layout`)."""

    groups: tuple[_Group, ...]
    order: tuple[int, ...]  # caller positions, in grid order
    block_ends: tuple[int, ...]  # each member's last grid row + 1, grid order
    n_blocks: int
    n_elements: int


def _refs_when_unreferenced() -> int:
    """What :func:`sys.getrefcount` reports, from :func:`_free_grid`'s
    scan, for a grid nothing else refers to (the kept list, the loop
    variable, the call's argument — measured, as interpreters differ)."""
    for grid in [np.empty(0)]:
        return sys.getrefcount(grid)


_UNREFERENCED = _refs_when_unreferenced()
#: grids kept for reuse, at most this many and this many bytes of them;
#: beyond either a grid is not kept.  The count bounds the scan a call
#: makes, so a burst of live fields cannot slow every later quantise.  The
#: repo benchmark's workloads keep at most 16.
_KEPT_GRIDS = 32
_KEPT_BYTES = 8 << 20
_KEPT: list[np.ndarray] = []
_KEPT_LOCK = threading.Lock()


def _unlock_in_child() -> None:
    # a forked child (an MPCluster worker) must not inherit the lock in
    # whatever state another thread of the parent left it
    global _KEPT_LOCK
    _KEPT_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_unlock_in_child)


def _free_grid(n: int, dtype) -> np.ndarray:
    """A zeroed ``n``-element grid that no quantised field still views.

    Quantised fields own their deltas, so a sweep cannot hand out arena
    scratch — but allocating a fresh grid per sweep and freeing it when
    its blocks were coded reshaped the allocator's heap for whatever ran
    next: a plain op after hz got its fold buffers carved back to back
    from the freed grids, 16 bytes apart modulo a page, and lost ~15 % to
    4K aliasing.  So grids are recycled: the smallest kept grid that is
    large enough and that nothing but the pool refers to (every field
    viewing it is gone) is taken again, and one is allocated only when
    none is free.  One pool per process, so threads share its bounds
    (:data:`_KEPT_GRIDS` grids, :data:`_KEPT_BYTES` bytes).
    """
    nbytes = n * np.dtype(dtype).itemsize
    with _KEPT_LOCK:
        best = None
        for grid in _KEPT:
            if (
                grid.nbytes >= nbytes
                and (best is None or grid.nbytes < best.nbytes)
                and sys.getrefcount(grid) == _UNREFERENCED
            ):
                best = grid
        if best is None:
            best = np.empty(nbytes, dtype=np.uint8)
            if (
                len(_KEPT) < _KEPT_GRIDS
                and sum(grid.nbytes for grid in _KEPT) + nbytes <= _KEPT_BYTES
            ):
                _KEPT.append(best)
        # viewed before the lock goes, so no other thread can take it
        grid = best[:nbytes]
    grid.fill(0)
    return grid.view(dtype)


@lru_cache(maxsize=256)
def _layout(shapes: tuple[tuple[int, int], ...], block_size: int) -> _Sweep:
    """Group ``(n, n_threadblocks)`` shapes and place every member.

    Memoised: a collective sweeps the same shapes every round.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(i)
    groups, order, ends, elem0, block0 = [], [], [], 0, 0
    for (n, n_tb), members in by_shape.items():
        structure = block_structure(n, block_size, n_tb)
        blocks, heads, head_len = structure.total_blocks, n_tb - 1, n // n_tb
        slabs: tuple[slice, ...] = ()
        if heads and head_len:
            step = max(1, _SLAB_ELEMS // (len(members) * head_len))
            slabs = tuple(
                slice(t, min(t + step, heads)) for t in range(0, heads, step)
            )
        else:
            head_len = 0
        groups.append(
            _Group(
                structure, tuple(members), elem0, block0, n, blocks, head_len,
                int(structure.blocks_per_tb[0]) * block_size, slabs,
                max(head_len, n - heads * head_len),
            )
        )
        order += members
        ends += [block0 + blocks * (j + 1) for j in range(len(members))]
        elem0 += n * len(members)
        block0 += blocks * len(members)
    return _Sweep(tuple(groups), tuple(order), tuple(ends), block0, elem0)


def _back_to_back(parts: list[np.ndarray], tag: str, size: int) -> np.ndarray:
    """``parts`` (``size`` elements in all) concatenated in arena scratch,
    cast to the first one's dtype; a lone part is used as is."""
    if len(parts) == 1:
        return parts[0]
    out = get_arena().take(tag, bucket(size), parts[0].dtype)[:size]
    return np.concatenate(parts, out=out, casting="unsafe")


def _caller_order(positions: Sequence[int], items: list) -> list:
    """``items`` (one per caller position in ``positions``) in caller order."""
    out = [None] * len(items)
    for i, item in zip(positions, items):
        out[i] = item
    return out


def _encode(grid: np.ndarray, held: list[QuantisedField]) -> list[CompressedField]:
    """Code ``grid`` — the ``(blocks, block_size)`` deltas of ``held``,
    back to back — in one pass and slice the stream into one field per
    member (views of the sweep's arrays)."""
    bs = held[0].block_size
    code_lengths, payload, offsets = encode_into(grid, bs)
    fields, b0, lo = [], 0, 0
    for q in held:
        b1 = b0 + q.deltas.shape[0]
        hi = int(offsets[b1])
        fields.append(
            CompressedField(
                n=q.n,
                error_bound=q.error_bound,
                block_size=bs,
                n_threadblocks=q.n_threadblocks,
                outliers=q.outliers,
                code_lengths=code_lengths[b0:b1],
                payload=payload[lo:hi],
                # from byte 0 (a lone member) a view of the layout's own
                _offsets=offsets[b0 : b1 + 1] - lo if lo else offsets[b0 : b1 + 1],
            )
        )
        b0, lo = b1, hi
    return fields


def _is_quantised(data) -> bool:
    """A non-empty sequence of quantised fields."""
    return (
        isinstance(data, (list, tuple))
        and bool(data)
        and all(map(isinstance, data, repeat(QuantisedField)))
    )


def _sweeps(sizes: list[int], kinds: list | None = None):
    """Cut a sequence into consecutive ``[lo, hi)`` sweeps.

    A sweep holds members of one ``kind`` and at most :data:`_SWEEP_ELEMS`
    elements (a larger member sweeps alone).
    """
    kinds = kinds or [None] * len(sizes)
    start = total = 0
    for i, n in enumerate(sizes):
        if i > start and (kinds[i] != kinds[start] or total + n > _SWEEP_ELEMS):
            yield start, i
            start, total = i, 0
        total += n
    yield start, len(sizes)


@dataclass(frozen=True)
class FZLight:
    """fZ-light compressor configured for a block geometry.

    Parameters
    ----------
    block_size : elements per small block (multiple of 8; paper uses 32).
    n_threadblocks : number of large chunks, i.e. the simulated OpenMP
        thread count.

    :meth:`compress` and :meth:`decompress` take one array / field or a
    sequence of them.  A sequence is processed in **one** kernel sweep over
    the concatenated block grid — the per-call fixed cost is paid once per
    batch, which is how a collective compresses a rank's ring blocks — and
    yields exactly the fields / arrays the per-item calls would.

    Examples
    --------
    >>> import numpy as np
    >>> comp = FZLight()
    >>> data = np.sin(np.linspace(0, 20, 10_000)).astype(np.float32)
    >>> fld = comp.compress(data, rel_eb=1e-3)
    >>> out = comp.decompress(fld)
    >>> bool(np.max(np.abs(out - data)) <= fld.error_bound)
    True
    >>> halves = comp.compress([data[:5000], data[5000:]], abs_eb=1e-3)
    >>> [h.n for h in halves]
    [5000, 5000]
    >>> halves[0].to_bytes() == comp.compress(data[:5000], abs_eb=1e-3).to_bytes()
    True
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    n_threadblocks: int = DEFAULT_THREADBLOCKS

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_threadblocks, "n_threadblocks")
        if self.block_size % 8 or self.block_size <= 0:
            raise ValueError("block_size must be a positive multiple of 8")

    # ------------------------------------------------------------------ #
    # compression
    # ------------------------------------------------------------------ #
    def compress(
        self,
        data: np.ndarray | QuantisedField | Sequence,
        abs_eb: float | None = None,
        rel_eb: float | None = None,
    ) -> CompressedField | list[CompressedField]:
        """Compress ``data`` under an absolute or relative error bound.

        A list/tuple of arrays comes back as a list of fields in the same
        order, each byte-identical to compressing that array alone (a
        relative bound resolves against each array's own range).

        :class:`QuantisedField` input (one or a sequence) is only coded —
        it already carries its error bound — into exactly the stream
        compressing its original array gives.
        """
        lone = isinstance(data, QuantisedField)
        if lone or _is_quantised(data):
            if abs_eb is not None or rel_eb is not None:
                raise ValueError("a quantised field already has its error bound")
            held = [data] if lone else list(data)
            if len(held) == 1:  # a ring's send: one field, its own grid
                fields = _encode(held[0].deltas, held)
            else:
                fields = []
                for lo, hi in _sweeps(
                    [q.n for q in held], [q.block_size for q in held]
                ):
                    part = held[lo:hi]
                    fields += _encode(_deltas_back_to_back(part), part)
            return fields[0] if lone else fields
        batch, arrays = self._arrays(data, "compress")
        fields: list[CompressedField] = []
        for lo, hi in _sweeps([a.size for a in arrays]):
            grid, sweep, held = self._quantise_sweep(
                arrays[lo:hi], abs_eb, rel_eb, private=False
            )
            ordered = [held[i] for i in sweep.order]
            fields += _caller_order(sweep.order, _encode(grid, ordered))
        return fields if batch else fields[0]

    def quantise(
        self,
        data: np.ndarray | Sequence[np.ndarray],
        abs_eb: float | None = None,
        rel_eb: float | None = None,
    ) -> QuantisedField | list[QuantisedField]:
        """Quantise and predict ``data`` without coding it.

        Same arguments, batching and sweep as :meth:`compress`, which is
        this plus one fixed-length coding pass: ``compress(quantise(x))``
        is byte-identical to ``compress(x)``.  Every member owns its
        deltas (disjoint slices of a grid no other live field views, never
        arena scratch), so a homomorphic fold may add into them in place.
        """
        batch, arrays = self._arrays(data, "quantise")
        held: list[QuantisedField] = []
        for lo, hi in _sweeps([a.size for a in arrays]):
            held += self._quantise_sweep(
                arrays[lo:hi], abs_eb, rel_eb, private=True
            )[2]
        return held if batch else held[0]

    @staticmethod
    def _arrays(data, verb: str) -> tuple[bool, list[np.ndarray]]:
        """``(is a batch, the float32 arrays)`` of one array or a sequence.

        Finiteness is checked by the sweep, on the range it reads anyway.
        """
        batch = isinstance(data, (list, tuple)) and all(
            map(isinstance, data, repeat(np.ndarray))
        )
        arrays = [as_float_array(a) for a in (data if batch else (data,))]
        if not arrays:
            raise ValueError(f"cannot {verb} an empty batch")
        return batch, arrays

    def _quantise_sweep(
        self, arrays: list[np.ndarray], abs_eb, rel_eb, private: bool
    ) -> tuple[np.ndarray, _Sweep, list[QuantisedField]]:
        """Quantise → predict every array in one pass each.

        Returns the sweep's ``(blocks, block_size)`` delta grid, its
        :class:`_Sweep` and the members in caller order, each a view of
        its slice of the grid.  The grid is arena scratch unless
        ``private`` (the members then outlive the sweep).
        """
        bs, n_tb = self.block_size, self.n_threadblocks
        arena = get_arena()
        sweep = _layout(tuple([(a.size, n_tb) for a in arrays]), bs)
        groups = sweep.groups
        raw = _back_to_back(
            [arrays[i] for i in sweep.order], "fz.raw", sweep.n_elements
        )
        top, bottom = float(np.maximum.reduce(raw)), float(np.minimum.reduce(raw))
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise ValueError("data contains NaN or infinite values")
        if rel_eb is None:  # one absolute bound for every member
            bounds = [resolve_error_bound(raw, abs_eb=abs_eb)] * len(arrays)
        else:
            bounds = [
                resolve_error_bound(a, abs_eb=abs_eb, rel_eb=rel_eb) for a in arrays
            ]
        inverse = [1.0 / (2.0 * bound) for bound in bounds]
        scales = [np.array([inverse[i] for i in group.members]) for group in groups]
        # The largest |x / 2eb| is the largest |x| times its scale.  Across
        # the whole sweep that is a bound; it is exact when the scales agree,
        # and only a bound that reaches the int32 limit needs the exact
        # per-member product (dtype and overflow must match a lone call).
        peak = max(abs(top), abs(bottom)) * max(inverse)
        if peak >= 2**30:
            peak = 0.0
            for group, scale in zip(groups, scales):
                rows = group.rows(raw)
                extreme = np.maximum(rows.max(axis=1), -rows.min(axis=1))
                peak = max(peak, float((extreme * scale).max()))

        # Quantise and predict slab by slab, straight into the padded block
        # grid: the deltas are written where the encoder reads them, one
        # memory pass fewer than predict-then-scatter (the fusion the paper
        # credits for fZ-light's edge over the unfused cuSZp port).  Slot 0
        # of every thread-block stays 0; its code is the thread-block's
        # outlier.
        dtype = code_dtype(peak)
        size = sweep.n_blocks * bs
        if private:
            grid = _free_grid(size, dtype)
        else:
            grid = arena.take("fz.grid", size, dtype, zero=True)
        outliers = [
            np.zeros((len(group.members), n_tb), dtype=np.int64) for group in groups
        ]
        for group, scale, firsts in zip(groups, scales, outliers):
            for slots, cols, values in group.runs(grid, group.rows(raw)):
                scaled, codes = arena.take_many((
                    ("fz.f64", values.shape, np.float64),
                    ("fz.codes", values.shape, dtype),
                ))
                np.multiply(values, scale[:, None, None], out=scaled)
                np.rint(scaled, out=scaled)
                codes[...] = scaled
                np.subtract(codes[:, :, 1:], codes[:, :, :-1], out=slots[:, :, 1:])
                firsts[:, cols] = codes[:, :, 0]

        # every |code| is at most ceil(peak), so a delta at most twice that
        bound = 2 * math.ceil(peak)
        if private:
            bound = ensure_codable(grid, bound)
        grid = grid.reshape(sweep.n_blocks, bs)
        held: list = [None] * len(arrays)
        for group, firsts in zip(groups, outliers):
            per_field = group.blocks
            for j, i in enumerate(group.members):
                b0 = group.block0 + j * per_field
                held[i] = QuantisedField(
                    n=group.n,
                    error_bound=bounds[i],
                    block_size=bs,
                    n_threadblocks=n_tb,
                    outliers=firsts[j],
                    deltas=grid[b0 : b0 + per_field],
                    bound=bound,
                )
        return grid, sweep, held

    # ------------------------------------------------------------------ #
    # decompression
    # ------------------------------------------------------------------ #
    def decompress(
        self,
        compressed: CompressedField | QuantisedField | Sequence,
    ) -> np.ndarray | list[np.ndarray]:
        """Reconstruct float32 data; error is bounded by ``error_bound``.

        A sequence of fields comes back as a list of arrays in the same
        order, bit-identical to decompressing each alone.  Every field is
        decoded under its own geometry and error bound; only neighbours with
        one block size share a decode sweep.  A :class:`QuantisedField`
        has nothing to decode: it is only dequantised, bit-identical to
        decompressing its compressed stream.
        """
        batch = not isinstance(compressed, (CompressedField, QuantisedField))
        fields = list(compressed) if batch else [compressed]
        if not fields:
            raise ValueError("cannot decompress an empty batch")
        out: list[np.ndarray] = []
        for lo, hi in _sweeps([f.n for f in fields], [f.block_size for f in fields]):
            out += self._decompress_sweep(fields[lo:hi])
        return out if batch else out[0]

    def _decompress_sweep(self, fields: list) -> list[np.ndarray]:
        """Decode → segmented prefix sum → dequantise, one pass each.

        The prefix sums run on *contiguous* runs of the decoded delta grid
        (each thread-block's real deltas sit in one run; padding only
        trails it), so neither they nor the dequantise pay a gather — the
        memory-access property the paper's multi-layer partitioning exists
        to provide.  Quantised members bring their deltas already decoded.
        """
        arena = get_arena()
        bs = fields[0].block_size
        sweep = _layout(tuple([(f.n, f.n_threadblocks) for f in fields]), bs)
        ordered = [fields[i] for i in sweep.order]
        grid, peak = _delta_grid(ordered, sweep, bs)
        flat = grid.reshape(-1)
        out: list = [None] * len(fields)
        for group in sweep.groups:
            m, members = len(group.members), group.members
            outliers, twice_eb = arena.take_many((
                ("fz.out", (m, group.structure.n_threadblocks), np.int64),
                ("fz.eb", (m, 1, 1), np.float64),
            ))
            for j, i in enumerate(members):
                outliers[j] = fields[i].outliers
                twice_eb[j] = 2.0 * fields[i].error_bound
            dtype = _code_dtype(group.run, peak, outliers)
            outliers = outliers.astype(dtype, copy=False)
            # members of one geometry come back as the rows of one array
            decoded = np.empty((m, group.n), dtype=np.float32)
            for slots, cols, values in group.runs(flat, decoded):
                codes = arena.take("fz.codes", slots.shape, dtype)
                slots.cumsum(axis=2, dtype=dtype, out=codes)
                codes += outliers[:, cols, None]
                # every code is exact in float64, whatever it was summed in
                np.multiply(codes, twice_eb, out=values, dtype=np.float64)
            for j, i in enumerate(members):
                out[i] = decoded[j]
        return out


def _code_dtype(run: int, peak: int, outliers: np.ndarray):
    """``int32`` when it holds every prefix sum of a decompress, else ``int64``.

    A code is its thread-block's outlier (``outliers``, ``int64``) plus at
    most ``run`` deltas, each at most ``peak`` in magnitude, so ``run·peak
    + max |outlier| <= 2**31 − 1`` proves no partial sum leaves ``int32``.
    """
    # abs(-2**63) stays negative as int64, and is 2**63 read as uint64
    reach = np.maximum.reduce(np.abs(outliers).view(np.uint64), axis=None)
    if run * peak + int(reach) <= _INT32_MAX:
        return np.int32
    return np.int64


def _deltas_back_to_back(held: list[QuantisedField]) -> np.ndarray:
    """The ``(blocks, block_size)`` deltas of ``held``, back to back, in
    the widest of their dtypes."""
    parts = [q.deltas for q in held]
    if len(parts) == 1:
        return parts[0]
    out = get_arena().take(
        "fz.grid",
        (sum([p.shape[0] for p in parts]), held[0].block_size),
        np.result_type(*parts),
    )
    return np.concatenate(parts, out=out)


def _delta_grid(ordered: list, sweep: _Sweep, bs: int) -> tuple[np.ndarray, int]:
    """The deltas of ``ordered``'s members, back to back, in arena scratch,
    and a bound on their magnitudes.

    The streams are decoded in one pass; a quantised member's blocks are
    constant to that pass, and its own deltas are copied in after it.
    """
    held = list(map(isinstance, ordered, repeat(QuantisedField)))
    if all(held):
        return _deltas_back_to_back(ordered), max([q.bound for q in ordered])
    # a stream whose sizes disagree with its geometry would shift every
    # later member's slice: refuse it before decoding anything
    b0, wide, peak = 0, False, 0
    for f, q, b1 in zip(ordered, held, sweep.block_ends):
        if q:
            wide = wide or f.deltas.dtype == np.int64
            peak = max(peak, f.bound)
        elif f.code_lengths.size != b1 - b0:
            f.validate()  # raises, naming the mismatch
        b0 = b1
    code_lengths = _back_to_back(
        [
            np.zeros(f.deltas.shape[0], np.uint8) if q else f.code_lengths
            for f, q in zip(ordered, held)
        ],
        "fz.lens",
        sweep.n_blocks,
    )
    # a lone stream brings its layout; a batch is one longer stream
    layout = (
        ordered[0].layout
        if len(ordered) == 1
        else stream_layout(code_lengths, bs)
    )
    p0 = 0
    ends = layout.offsets[list(sweep.block_ends)].tolist()
    for f, q, p1 in zip(ordered, held, ends):
        if not q and p1 - p0 != f.payload.size:
            f.validate()
        p0 = p1
    payload = _back_to_back(
        [f.payload for f, q in zip(ordered, held) if not q], "fz.pay", p0
    )
    wide = wide or layout.max_c > 31
    grid = get_arena().take(
        "fz.grid", (sweep.n_blocks, bs), np.int64 if wide else np.int32
    )
    decode_blocks(code_lengths, payload, bs, out=grid, layout=layout)
    for f, q, b1 in zip(ordered, held, sweep.block_ends):
        if q:
            grid[b1 - f.deltas.shape[0] : b1] = f.deltas
    # a decoded magnitude has at most max_c bits
    top = (1 << layout.max_c) - 1
    return grid, top if top > peak else peak


def compress(
    data: np.ndarray,
    abs_eb: float | None = None,
    rel_eb: float | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    n_threadblocks: int = DEFAULT_THREADBLOCKS,
) -> CompressedField:
    """One-shot fZ-light compression with default geometry."""
    return FZLight(block_size=block_size, n_threadblocks=n_threadblocks).compress(
        data, abs_eb=abs_eb, rel_eb=rel_eb
    )


def decompress(compressed: CompressedField) -> np.ndarray:
    """One-shot fZ-light decompression."""
    return FZLight(
        block_size=compressed.block_size, n_threadblocks=compressed.n_threadblocks
    ).decompress(compressed)
