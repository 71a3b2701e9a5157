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
the "threads" of the paper map onto thread-blocks processed either in one
vectorised sweep (default — NumPy already saturates memory bandwidth) or on
a real :class:`~concurrent.futures.ThreadPoolExecutor` (``parallel=True``;
NumPy kernels release the GIL).

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

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..kernels.arena import get_arena
from ..kernels.plan import StreamLayout, stream_layout
from ..utils.pool import shared_executor
from ..utils.validation import (
    ensure_float_array,
    ensure_positive_int,
)
from .common import code_dtype, resolve_error_bound
from .encoding import (
    DEFAULT_BLOCK_SIZE,
    decode_blocks,
    encode_blocks,
    encode_into,
    payload_offsets,
)
from .format import BlockStructure, CompressedField, block_structure

__all__ = [
    "FZLight",
    "compress",
    "decompress",
    "resolve_workers",
    "DEFAULT_THREADBLOCKS",
]

#: The paper fixes compression at 36 threads (two Broadwell sockets) for the
#: compressor studies and 18 (one socket) inside collectives.
DEFAULT_THREADBLOCKS = 36


def resolve_workers(n_tasks: int, max_workers: int | None = None) -> int:
    """Thread-pool width for ``n_tasks`` per-thread-block chunks.

    Defaults to the host's CPU count — the previous silent hard cap of 16
    workers ignored both the machine and configurations like the paper's
    ``n_threadblocks=36`` two-socket runs.  Pass ``max_workers`` to pin the
    width explicitly (e.g. 36 to mirror the paper's compressor studies on a
    wide enough host).
    """
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    ensure_positive_int(max_workers, "max_workers")
    return max(1, min(int(n_tasks), max_workers))


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
    calls per group however many members or thread-blocks it has.
    """

    structure: BlockStructure
    members: tuple[int, ...]  # positions in the caller's sequence
    elem0: int  # first element in the sweep's per-element buffers
    block0: int  # first row in the sweep's block grid

    def rows(self, per_element: np.ndarray) -> np.ndarray:
        """This group's ``(members, n)`` slice of a sweep-wide element buffer."""
        m, n = len(self.members), self.structure.n
        return per_element[self.elem0 : self.elem0 + m * n].reshape(m, n)

    def runs(self, grid: np.ndarray, rows: np.ndarray):
        """Yield ``(grid slots, thread-block columns, element view)`` per run.

        ``grid`` is the sweep's flat padded block grid, ``rows`` a
        ``(members, n)`` array of per-element values; both views are
        ``(members, thread-blocks, run length)``.  The head matrix comes in
        slabs of about :data:`_SLAB_ELEMS` elements so that a caller
        chaining several kernels over a slab finds it still cached.
        """
        s, m = self.structure, len(self.members)
        width = s.total_blocks * s.block_size
        lo = self.block0 * s.block_size
        g = grid[lo : lo + m * width].reshape(m, width)
        heads = s.n_threadblocks - 1
        head_len = s.n // s.n_threadblocks
        cut_e = cut_g = 0
        if heads and head_len:
            pad = int(s.blocks_per_tb[0]) * s.block_size
            cut_e, cut_g = heads * head_len, heads * pad
            g_heads = g[:, :cut_g].reshape(m, heads, pad)[:, :, :head_len]
            e_heads = rows[:, :cut_e].reshape(m, heads, head_len)
            step = max(1, _SLAB_ELEMS // (m * head_len))
            for t in range(0, heads, step):
                cols = slice(t, min(t + step, heads))
                yield g_heads[:, cols], cols, e_heads[:, cols]
        yield (
            g[:, None, cut_g : cut_g + s.n - cut_e],
            slice(heads, heads + 1),
            rows[:, None, cut_e:],
        )


@lru_cache(maxsize=256)
def _layout(
    shapes: tuple[tuple[int, int], ...], block_size: int
) -> tuple[tuple[_Group, ...], int]:
    """Group ``(n, n_threadblocks)`` shapes; returns the groups and total blocks.

    Memoised: a collective sweeps the same shapes every round.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(i)
    groups, elem0, block0 = [], 0, 0
    for (n, n_tb), members in by_shape.items():
        structure = block_structure(n, block_size, n_tb)
        groups.append(_Group(structure, tuple(members), elem0, block0))
        elem0 += n * len(members)
        block0 += structure.total_blocks * len(members)
    return tuple(groups), block0


def _back_to_back(parts: list[np.ndarray], tag: str) -> np.ndarray:
    """``parts`` concatenated in arena scratch; a lone part is used as is."""
    if len(parts) == 1:
        return parts[0]
    out = get_arena().take(tag, sum(p.size for p in parts), parts[0].dtype)
    return np.concatenate(parts, out=out)


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
    parallel : when True, encode/decode contiguous runs of the block grid
        on a thread pool (multi-thread mode); when False, one vectorised
        sweep (single-thread mode).
    max_workers : thread-pool cap in parallel mode; ``None`` (default)
        derives it from ``os.cpu_count()`` via :func:`resolve_workers`.

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
    parallel: bool = False
    max_workers: int | None = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.n_threadblocks, "n_threadblocks")
        if self.max_workers is not None:
            ensure_positive_int(self.max_workers, "max_workers")
        if self.block_size % 8 or self.block_size <= 0:
            raise ValueError("block_size must be a positive multiple of 8")

    # ------------------------------------------------------------------ #
    # compression
    # ------------------------------------------------------------------ #
    def compress(
        self,
        data: np.ndarray | Sequence[np.ndarray],
        abs_eb: float | None = None,
        rel_eb: float | None = None,
    ) -> CompressedField | list[CompressedField]:
        """Compress ``data`` under an absolute or relative error bound.

        A list/tuple of arrays comes back as a list of fields in the same
        order, each byte-identical to compressing that array alone (a
        relative bound resolves against each array's own range).
        """
        batch = isinstance(data, (list, tuple)) and all(
            isinstance(a, np.ndarray) for a in data
        )
        arrays = [ensure_float_array(a) for a in (data if batch else (data,))]
        if not arrays:
            raise ValueError("cannot compress an empty batch")
        fields: list[CompressedField] = []
        for lo, hi in _sweeps([a.size for a in arrays]):
            fields += self._compress_sweep(arrays[lo:hi], abs_eb, rel_eb)
        return fields if batch else fields[0]

    def _compress_sweep(
        self, arrays: list[np.ndarray], abs_eb, rel_eb
    ) -> list[CompressedField]:
        """Quantise → predict → encode every array in one pass each."""
        bounds = [
            resolve_error_bound(a, abs_eb=abs_eb, rel_eb=rel_eb) for a in arrays
        ]
        bs, n_tb = self.block_size, self.n_threadblocks
        arena = get_arena()
        groups, n_blocks = _layout(tuple((a.size, n_tb) for a in arrays), bs)

        ordered = [arrays[i] for group in groups for i in group.members]
        raw = _back_to_back(ordered, "fz.raw")
        inverse = [1.0 / (2.0 * bound) for bound in bounds]
        scales = [np.array([inverse[i] for i in group.members]) for group in groups]
        # The largest |x / 2eb| is the largest |x| times its scale.  Across
        # the whole sweep that is a bound; it is exact when the scales agree,
        # and only a bound that reaches the int32 limit needs the exact
        # per-member product (dtype and overflow must match a lone call).
        peak = max(abs(float(raw.max())), abs(float(raw.min()))) * max(inverse)
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
        grid = arena.take("fz.grid", n_blocks * bs, dtype, zero=True)
        outliers = [
            np.zeros((len(group.members), n_tb), dtype=np.int64) for group in groups
        ]
        for group, scale, firsts in zip(groups, scales, outliers):
            for slots, cols, values in group.runs(grid, group.rows(raw)):
                scaled = arena.take("fz.f64", values.shape, np.float64)
                np.multiply(values, scale[:, None, None], out=scaled)
                np.rint(scaled, out=scaled)
                codes = arena.take("fz.codes", values.shape, dtype)
                np.copyto(codes, scaled, casting="unsafe")
                np.subtract(codes[:, :, 1:], codes[:, :, :-1], out=slots[:, :, 1:])
                firsts[:, cols] = codes[:, :, 0]

        code_lengths, payload, offsets = self._encode(grid.reshape(n_blocks, bs))

        # every field's arrays are slices of the sweep's
        fields: list[CompressedField | None] = [None] * len(arrays)
        for group, firsts in zip(groups, outliers):
            per_field = group.structure.total_blocks
            for j, i in enumerate(group.members):
                b0 = group.block0 + j * per_field
                b1 = b0 + per_field
                lo, hi = int(offsets[b0]), int(offsets[b1])
                fields[i] = CompressedField(
                    n=group.structure.n,
                    error_bound=bounds[i],
                    block_size=bs,
                    n_threadblocks=n_tb,
                    outliers=firsts[j],
                    code_lengths=code_lengths[b0:b1],
                    payload=payload[lo:hi],
                    _offsets=offsets[b0 : b1 + 1] - lo,
                )
        return fields

    def _pool_ranges(self, n_blocks: int) -> tuple[np.ndarray, object]:
        """Contiguous block-row ranges, one per pool task, and the pool."""
        tasks = min(self.n_threadblocks, n_blocks)
        edges = np.linspace(0, n_blocks, tasks + 1).astype(np.int64)
        return edges, shared_executor(resolve_workers(tasks, self.max_workers))

    def _encode(
        self, blocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Code lengths, payload and payload offsets of the block grid."""
        if not self.parallel or self.n_threadblocks == 1:
            return encode_into(blocks, self.block_size)
        edges, pool = self._pool_ranges(blocks.shape[0])
        parts = list(
            pool.map(
                lambda lo, hi: encode_blocks(blocks[lo:hi], self.block_size),
                edges[:-1],
                edges[1:],
            )
        )
        code_lengths = np.concatenate([p[0] for p in parts])
        payload = np.concatenate([p[1] for p in parts])
        return code_lengths, payload, payload_offsets(code_lengths, self.block_size)

    # ------------------------------------------------------------------ #
    # decompression
    # ------------------------------------------------------------------ #
    def decompress(
        self, compressed: CompressedField | Sequence[CompressedField]
    ) -> np.ndarray | list[np.ndarray]:
        """Reconstruct float32 data; error is bounded by ``error_bound``.

        A sequence of fields comes back as a list of arrays in the same
        order, bit-identical to decompressing each alone.  Every field is
        decoded under its own geometry and error bound; only neighbours with
        one block size share a decode sweep.
        """
        batch = not isinstance(compressed, CompressedField)
        fields = list(compressed) if batch else [compressed]
        if not fields:
            raise ValueError("cannot decompress an empty batch")
        out: list[np.ndarray] = []
        for lo, hi in _sweeps(
            [f.n for f in fields], [f.block_size for f in fields]
        ):
            out += self._decompress_sweep(fields[lo:hi])
        return out if batch else out[0]

    def _decompress_sweep(self, fields: list[CompressedField]) -> list[np.ndarray]:
        """Decode → segmented prefix sum → dequantise, one pass each.

        The prefix sums run on *contiguous* runs of the decoded delta grid
        (each thread-block's real deltas sit in one run; padding only
        trails it), so neither they nor the dequantise pay a gather — the
        memory-access property the paper's multi-layer partitioning exists
        to provide.
        """
        arena = get_arena()
        bs = fields[0].block_size
        groups, n_blocks = _layout(
            tuple((f.n, f.n_threadblocks) for f in fields), bs
        )
        ordered = [fields[i] for group in groups for i in group.members]
        code_lengths = _back_to_back([f.code_lengths for f in ordered], "fz.lens")
        payload = _back_to_back([f.payload for f in ordered], "fz.pay")
        # a lone field brings its layout; a batch is one longer stream
        layout = (
            ordered[0].layout
            if len(ordered) == 1
            else stream_layout(code_lengths, bs)
        )
        offsets = layout.offsets
        # a stream whose sizes disagree with its geometry would shift every
        # later member's slice: refuse it before decoding anything
        b0 = 0
        for fld in ordered:
            b1 = b0 + fld.structure.total_blocks
            if fld.code_lengths.size != b1 - b0 or (
                int(offsets[b1]) - int(offsets[b0]) != fld.payload.size
            ):
                fld.validate()  # raises, naming the mismatch
            b0 = b1

        grid = arena.take(
            "fz.grid", (n_blocks, bs), np.int64 if layout.max_c > 31 else np.int32
        )
        self._decode(code_lengths, payload, layout, grid)

        flat = grid.reshape(-1)
        out: list[np.ndarray | None] = [None] * len(fields)
        for group in groups:
            m, structure = len(group.members), group.structure
            outliers = arena.take("fz.out", (m, structure.n_threadblocks), np.int64)
            twice_eb = np.empty((m, 1, 1))
            for j, i in enumerate(group.members):
                outliers[j] = fields[i].outliers
                twice_eb[j] = 2.0 * fields[i].error_bound
            # members of one geometry come back as the rows of one array
            decoded = np.empty((m, structure.n), dtype=np.float32)
            for slots, cols, values in group.runs(flat, decoded):
                codes = arena.take("fz.codes", slots.shape, np.int64)
                np.cumsum(slots, axis=2, dtype=np.int64, out=codes)
                codes += outliers[:, cols, None]
                np.multiply(codes, twice_eb, out=values, dtype=np.float64)
            for j, i in enumerate(group.members):
                out[i] = decoded[j]
        return out

    def _decode(
        self,
        code_lengths: np.ndarray,
        payload: np.ndarray,
        layout: StreamLayout,
        grid: np.ndarray,
    ) -> None:
        """Decode the whole stream into the ``(n_blocks, block_size)`` grid."""
        bs = grid.shape[1]
        if not self.parallel or self.n_threadblocks == 1:
            decode_blocks(code_lengths, payload, bs, out=grid, layout=layout)
            return
        edges, pool = self._pool_ranges(grid.shape[0])
        offsets = layout.offsets

        def decode_range(lo: int, hi: int) -> None:
            decode_blocks(
                code_lengths[lo:hi],
                payload[int(offsets[lo]) : int(offsets[hi])],
                bs,
                out=grid[lo:hi],
            )

        list(pool.map(decode_range, edges[:-1], edges[1:]))


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
