"""hZ-dynamic: the dynamic homomorphic compression pipeline (paper §III-B4).

Reductions run *directly* on fZ-light compressed streams.  For every small
block the engine inspects the operands' code lengths and routes the block
to the cheapest possible pipeline.  For a pair ``(x, y)``:

=========  ==================  =================================================
Pipeline   Condition           Work performed
=========  ==================  =================================================
1          ``x = 0, y = 0``    record a ``0`` code length — nothing else
2          ``x = 0, y ≠ 0``    copy block 2's bytes verbatim
3          ``x ≠ 0, y = 0``    copy block 1's bytes verbatim
4          ``x ≠ 0, y ≠ 0``    inverse fixed-length encode both, add the
                               integer predictions, re-encode (the only
                               "partial decompress" case — what a *static*
                               homomorphic pipeline does for every block)
=========  ==================  =================================================

The same classification generalises to ``k`` operands (:meth:`HZDynamic.
reduce_fused`): blocks that are constant in *every* operand cost nothing
(pipeline 1), blocks that are non-constant in *exactly one* operand copy
that operand's bytes verbatim (pipelines 2/3), and only blocks with two or
more non-constant operands pay the IFE→accumulate→FE round trip — and they
pay it **once** for all ``k`` operands (``k`` decodes + 1 encode) instead
of the ``(k−1)·(2 decodes + 1 encode)`` a pairwise left fold costs.

Thread-block outliers are simply added.  Correctness rests on linearity:
quantisation codes and Lorenzo deltas are both linear in the input, so the
homomorphic sum decompresses to exactly the sum of the operands'
decompressed values — no additional quantisation, hence no additional error
(§III-B4, last paragraph).

Besides ``sum`` the same linearity gives ``subtract`` and scalar ``scale``
for free; :meth:`HZDynamic.reduce_fused` accepts per-operand integer
weights so a weighted combination (including negation) fuses into the
single accumulation pass.  Non-linear reductions (min/max) are *not*
homomorphic in this representation and are rejected explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..compression.encoding import payload_offsets
from ..compression.format import CompressedField
from ..kernels.arena import get_arena
from ..kernels.dispatch import KernelBackend, get_backend
from ..obs.metrics import METRICS

__all__ = ["PipelineStats", "HZDynamic", "homomorphic_sum"]


@dataclass
class PipelineStats:
    """Per-pipeline block counts for one or more homomorphic operations.

    ``counts`` holds the classic pairwise pipeline 1–4 block counts
    (``percentages`` reproduces the Table V columns).  A fused k-way
    reduction records the counts its *pairwise-fold equivalent* would have
    recorded — one classification per block per fold step, cancellation
    included — so the statistics are comparable across execution
    strategies.

    ``kway`` additionally records the fused classification itself:
    ``[constant, copy, accumulate]`` block counts, i.e. how many blocks
    were constant in every operand, non-constant in exactly one operand
    (verbatim copy), or accumulated through the shared accumulator.
    ``fused_calls`` / ``fused_operands`` count engine invocations and
    their total operand count (``fused_operands / fused_calls`` is the
    mean reduction width k).
    """

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros(4, dtype=np.int64)
    )
    kway: np.ndarray = field(
        default_factory=lambda: np.zeros(3, dtype=np.int64)
    )
    fused_calls: int = 0
    fused_operands: int = 0

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def percentages(self) -> np.ndarray:
        """Share of blocks routed to pipelines 1–4, in percent."""
        total = self.total
        if total == 0:
            return np.zeros(4)
        return 100.0 * self.counts / total

    @property
    def mean_fanin(self) -> float:
        """Mean operand count per fused engine invocation (2 = pairwise)."""
        if self.fused_calls == 0:
            return 0.0
        return self.fused_operands / self.fused_calls

    def merge(self, other: "PipelineStats") -> "PipelineStats":
        self.counts += other.counts
        self.kway += other.kway
        self.fused_calls += other.fused_calls
        self.fused_operands += other.fused_operands
        return self

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        p = self.percentages
        return " ".join(f"P{i + 1}={p[i]:.2f}%" for i in range(4))


def _row_copy_indices(
    starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Flat indices covering variable-length rows ``[starts_i, starts_i+len_i)``.

    The classic repeat/arange trick: one vectorised gather replaces a Python
    loop over blocks (pipelines 2/3 reduce to exactly this copy).
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    row_of = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    return starts[row_of] + within


def _count_runs(idx: np.ndarray) -> int:
    """Number of maximal consecutive runs in sorted block indices (cheap)."""
    if idx.size == 0:
        return 0
    return int((np.diff(idx) != 1).sum()) + 1


def _block_runs(idx: np.ndarray) -> list[tuple[int, int]]:
    """Split sorted block indices into maximal consecutive runs.

    Consecutive blocks occupy *contiguous* byte ranges in every payload
    involved, so each run collapses to one slice copy — the Python-level
    analogue of the block-wise ``memcpy`` the C implementation gets for
    free.  Returns ``(start_pos, end_pos)`` positions into ``idx``.
    Callers should gate on :func:`_count_runs` first; materialising the
    list is only worth it when runs are long.
    """
    if idx.size == 0:
        return []
    splits = np.flatnonzero(np.diff(idx) != 1) + 1
    bounds = np.concatenate(([0], splits, [idx.size]))
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(bounds.size - 1)]


class HZDynamic:
    """Dynamic homomorphic operator over :class:`CompressedField` operands.

    Parameters
    ----------
    collect_stats : record pipeline-selection counts (Table V); a hair of
        overhead, on by default because the collectives report it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.compression import FZLight
    >>> comp = FZLight()
    >>> x = np.linspace(0, 1, 4096).astype(np.float32)
    >>> y = np.cos(np.linspace(0, 9, 4096)).astype(np.float32)
    >>> eb = 1e-4
    >>> cx, cy = comp.compress(x, abs_eb=eb), comp.compress(y, abs_eb=eb)
    >>> hz = HZDynamic()
    >>> csum = hz.add(cx, cy)
    >>> lhs = comp.decompress(csum)
    >>> rhs = comp.decompress(cx) + comp.decompress(cy)
    >>> # exact in the integer-code domain; the float32 stores of the two
    >>> # sides may differ by one ulp (sum-then-scale vs scale-then-sum)
    >>> bool(np.abs(lhs - rhs).max() <= np.spacing(np.abs(rhs).max()))
    True
    """

    #: When the accumulate class (generalised pipeline 4) would cover more
    #: than this fraction of blocks, the engine processes the whole stream
    #: through one contiguous IFE→accumulate→FE pass per operand instead of
    #: per-pipeline gathers: with almost no copyable blocks to exploit, the
    #: gather bookkeeping costs more than it saves.  This is part of the
    #: run-time heuristic — the dynamic selector picks the cheapest
    #: *execution strategy*, not just the cheapest per-block pipeline.
    DENSE_THRESHOLD = 0.75

    def __init__(self, collect_stats: bool = True) -> None:
        self.collect_stats = collect_stats
        self.stats = PipelineStats()

    def reset_stats(self) -> None:
        self.stats = PipelineStats()

    # ------------------------------------------------------------------ #
    def add(self, a: CompressedField, b: CompressedField) -> CompressedField:
        """Homomorphic sum of two compatible compressed fields."""
        return self.reduce_fused((a, b))

    def subtract(self, a: CompressedField, b: CompressedField) -> CompressedField:
        """Homomorphic difference ``a − b``.

        The negation fuses into the accumulation pass (weight −1): no
        scaled intermediate copy of ``b`` is ever materialised.
        """
        return self.reduce_fused((a, b), weights=(1, -1))

    # ------------------------------------------------------------------ #
    def scale(self, a: CompressedField, factor: int) -> CompressedField:
        """Homomorphic integer scaling (linearity extension).

        The one-operand case of :meth:`reduce_fused` (weight ``factor``);
        ``factor == 1`` returns a copy.  Only integer factors keep the
        representation exact.  For fused weighted combinations pass the
        whole ``weights`` vector to :meth:`reduce_fused` — it never
        materialises the scaled copy this method returns.
        """
        if int(factor) != factor:
            raise ValueError("homomorphic scaling requires an integer factor")
        if factor == 1:
            return a.copy()
        return self.reduce_fused((a,), weights=(factor,))

    # ------------------------------------------------------------------ #
    def reduce_fused(
        self,
        fields: Sequence[CompressedField],
        weights: Sequence[int] | None = None,
    ) -> CompressedField:
        """Fused k-way homomorphic reduction ``Σ wᵢ·xᵢ`` (default ``wᵢ = 1``).

        Classifies every block **once** across all ``k`` operands:

        * constant in every (weight-contributing) operand → pipeline 1,
          nothing stored;
        * non-constant in exactly one operand with weight 1 → pipelines
          2/3, that operand's bytes are copied verbatim;
        * everything else → one shared accumulation: each
          contributing operand's deltas are decoded **once**, scaled by
          their weight, accumulated, and the result re-encoded **once** —
          ``O(k)`` decodes + 1 encode, versus ``(k−1)·(2 decodes +
          1 encode)`` for the pairwise left fold.

        When the accumulate class exceeds :data:`DENSE_THRESHOLD` of the
        blocks, the whole stream goes through one contiguous full-stream
        pass per operand (dense strategy), mirroring the pairwise dense
        heuristic.  Both strategies produce **byte-identical** streams to
        the sequential pairwise fold: integer addition is exact and
        fixed-length encoding is deterministic, so the schedule and the
        execution strategy are pure execution policy.

        Weights must be integers; weight 0 drops an operand entirely.
        With a single field and weight 1 the input object itself is
        returned (matching :meth:`reduce`).

        Recorded pipeline statistics are *fold-equivalent*: the 4-way
        ``counts`` match what the sequential pairwise fold would have
        recorded (including blocks whose partial sums cancel to a constant
        mid-fold), while ``kway`` records the fused classification.
        """
        k = len(fields)
        if k == 0:
            raise ValueError("reduce requires at least one field")
        if weights is None:
            w = np.ones(k, dtype=np.int64)
        else:
            if len(weights) != k:
                raise ValueError(
                    f"got {len(weights)} weights for {k} fields"
                )
            for x in weights:
                if int(x) != x:
                    raise ValueError("homomorphic weights must be integers")
            w = np.asarray([int(x) for x in weights], dtype=np.int64)
        a = fields[0]
        for f in fields[1:]:
            if not a.compatible_with(f):
                raise ValueError(
                    "operands are not homomorphically compatible (need "
                    "identical length, block geometry and error bound)"
                )
        if k == 1 and w[0] == 1:
            return a

        bs = a.block_size
        nb = a.code_lengths.size
        # (k, nb) contribution matrix: operand j contributes to a block iff
        # the block is non-constant there and the weight is non-zero
        # (scaling by a non-zero integer preserves zero-ness exactly).
        lens_mat = np.array([f.code_lengths for f in fields])
        nzmat = lens_mat != 0
        if weights is not None:
            nzmat &= (w != 0)[:, None]
        contrib = np.add.reduce(nzmat, axis=0, dtype=np.intp)

        # a block with one contributor is that operand's bytes verbatim —
        # unless its weight scales them, which takes the accumulator
        single = contrib == 1
        if weights is None:
            owner, copy_mask = None, single
        else:
            owner = np.argmax(nzmat, axis=0)
            copy_mask = single & (w[owner] == 1)
        copy_count = int(np.count_nonzero(copy_mask))
        acc_count = int(np.count_nonzero(contrib)) - copy_count
        const_count = nb - copy_count - acc_count

        if self.collect_stats:
            self.stats.fused_calls += 1
            self.stats.fused_operands += k
            self.stats.kway += (const_count, copy_count, acc_count)
        if METRICS.enabled:
            METRICS.inc("hz.fused_calls")
            METRICS.inc("hz.fused_operands", k)
            METRICS.inc("hz.blocks.constant", const_count)
            METRICS.inc("hz.blocks.copy", copy_count)
            METRICS.inc("hz.blocks.accumulate", acc_count)

        # one backend for the whole call: resolved here, not per kernel
        backend = get_backend()
        if acc_count > self.DENSE_THRESHOLD * nb:
            code_lengths, payload, out_offsets = self._accumulate_dense(
                backend, fields, w, lens_mat, nzmat, bs
            )
        else:
            if owner is None:
                owner = np.argmax(nzmat, axis=0)
            code_lengths, payload, out_offsets = self._accumulate_sparse(
                backend, fields, w, lens_mat, nzmat, owner, copy_mask,
                ~(copy_mask | (contrib == 0)), const_count, bs,
            )

        return CompressedField(
            n=a.n,
            error_bound=a.error_bound,
            block_size=bs,
            n_threadblocks=a.n_threadblocks,
            # zero weights add nothing, exactly as leaving the operand out
            outliers=w @ np.array([f.outliers for f in fields]),
            predictor=a.predictor,
            rows=a.rows,
            cols=a.cols,
            code_lengths=code_lengths,
            payload=payload,
            _offsets=out_offsets,
        )

    # ------------------------------------------------------------------ #
    def _accumulate_dense(
        self,
        backend: KernelBackend,
        fields: Sequence[CompressedField],
        w: np.ndarray,
        lens_mat: np.ndarray,
        nzmat: np.ndarray,
        bs: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-stream strategy: one fused k-way backend sweep.

        With nearly every block in the accumulate class there is nothing
        to gain from per-pipeline gathers, so the whole reduction is handed
        to the active backend's ``reduce_fused`` kernel — each block is
        decoded, weighted, accumulated and re-classified in one visit
        across all ``k`` operands (a single ``prange`` sweep on the Numba
        backend).  Constant and single-owner blocks re-encode to
        byte-identical output (decoding a constant block yields zeros;
        fixed-length encoding is deterministic), so the strategy switch is
        invisible downstream.

        The accumulator and every decode temporary come from the
        thread-local arena — a warmed steady state allocates nothing
        beyond the output stream itself — and every operand brings its
        stream layout, so nothing about a stream is derived twice.
        Pipeline statistics come back as the ``zero_after`` Z-matrix
        ("partial sum through operands 0..j is identically zero" per
        block), computed inside the same sweep and reduced to
        fold-equivalent counts afterwards.
        """
        track = self.collect_stats
        acc = get_arena().take("hz.acc", (lens_mat.shape[1], bs), np.int64)
        out_lengths, payload, out_offsets, zero_after = backend.reduce_fused(
            lens_mat,
            [f.offsets for f in fields],
            [f.payload for f in fields],
            w,
            bs,
            acc=acc,
            track=track,
            layouts=[f.layout for f in fields],
        )
        if track:
            self._record_fold_stats(zero_after, nzmat)
        return out_lengths, payload, out_offsets

    def _accumulate_sparse(
        self,
        backend: KernelBackend,
        fields: Sequence[CompressedField],
        w: np.ndarray,
        lens_mat: np.ndarray,
        nzmat: np.ndarray,
        owner: np.ndarray,
        copy_mask: np.ndarray,
        acc_mask: np.ndarray,
        const_count: int,
        bs: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather strategy: verbatim copies + subset accumulation."""
        k = len(fields)
        track = self.collect_stats
        copy_idx = np.nonzero(copy_mask)[0]
        acc_idx = np.nonzero(acc_mask)[0]

        if track:
            # Closed-form fold-equivalent counts for the no-cancellation
            # classes.  A block constant everywhere is pipeline 1 at every
            # fold step.  A block owned by operand o alone is pipeline 1
            # until o arrives (o−1 steps), pipeline 2 when it does, and
            # pipeline 3 afterwards (o = 0 skips straight to pipeline 3).
            steps = k - 1
            self.stats.counts[0] += const_count * steps
            if copy_idx.size:
                o = owner[copy_idx].astype(np.int64)
                later = o >= 1
                self.stats.counts[0] += int((o[later] - 1).sum())
                self.stats.counts[1] += int(later.sum())
                self.stats.counts[2] += int(
                    np.where(later, steps - o, steps).sum()
                )

        out_lengths = np.zeros_like(fields[0].code_lengths)
        if copy_idx.size:
            out_lengths[copy_idx] = lens_mat[owner[copy_idx], copy_idx]

        lens_acc = payload_acc = offsets_acc = None
        if acc_idx.size:
            # Accumulator and decode rows come from the thread-local arena:
            # a warmed steady state allocates nothing here (distinct tags
            # never alias, and neither buffer escapes this call).
            arena = get_arena()
            acc = arena.take("hz.acc", (acc_idx.size, bs), np.int64, zero=True)
            azero = ~nzmat[0][acc_idx] if track else None
            for j, f in enumerate(fields):
                p4 = None
                if track and j > 0:
                    p4 = self._record_fold_step(azero, ~nzmat[j][acc_idx])
                if w[j]:
                    sel = np.nonzero(nzmat[j][acc_idx])[0]
                    if sel.size:
                        dj = backend.decode_selected(
                            acc_idx[sel],
                            f.code_lengths,
                            f.offsets,
                            f.payload,
                            bs,
                            out=arena.take("hz.dj", (sel.size, bs), np.int64),
                        )
                        if w[j] != 1:
                            dj *= w[j]
                        acc[sel] += dj
                if p4 is not None and p4.size:
                    azero[p4] = ~acc[p4].any(axis=1)
            lens_acc, payload_acc, offsets_acc = backend.classify_encode(acc, bs)
            out_lengths[acc_idx] = lens_acc

        out_offsets = payload_offsets(out_lengths, bs)
        payload = np.empty(int(out_offsets[-1]), dtype=np.uint8)

        if copy_idx.size:
            for j in np.unique(owner[copy_idx]):
                self._copy_pipeline(
                    payload,
                    out_offsets,
                    copy_mask & (owner == j),
                    fields[j],
                    out_lengths,
                    bs,
                )
        if acc_idx.size:
            self._scatter_rows(payload, out_offsets, acc_idx, payload_acc, offsets_acc)
        return out_lengths, payload, out_offsets

    def _record_fold_stats(
        self, zero_after: np.ndarray, nzmat: np.ndarray
    ) -> None:
        """Fold-equivalent pipeline counts from the fused sweep's Z-matrix.

        ``zero_after[j, i]`` is "block *i*'s partial sum through operands
        ``0..j`` is identically zero" — exactly the running ``azero`` flag
        the stepwise :meth:`_record_fold_step` maintains (a non-constant
        contribution with a non-zero integer weight can never be zero, and
        the fused kernel reports the flag after every operand).
        The pairwise fold's step-*j* classification therefore reads
        ``zero_after[j-1]`` against operand *j*'s constancy, and all
        ``k − 1`` steps reduce in one vectorised pass.
        """
        az, nz_b = zero_after[:-1], nzmat[1:]
        # three counts fix the 2 x 2 table of (partial is zero, operand is)
        a_zero = int(np.count_nonzero(az))
        b_nonzero = int(np.count_nonzero(nz_b))
        p2 = int(np.count_nonzero(az & nz_b))
        p1, p4 = a_zero - p2, b_nonzero - p2
        self.stats.counts += (p1, p2, az.size - p1 - p2 - p4, p4)

    def _record_fold_step(self, azero: np.ndarray, bzero: np.ndarray) -> np.ndarray:
        """Record one fold step's pipeline counts; returns pipeline-4 rows.

        ``azero`` is the running "accumulated partial is constant" flag per
        tracked block and is updated in place for the copy classes; the
        caller refreshes the returned pipeline-4 rows from the accumulator
        *after* folding the operand in, which is the only point where a
        partial sum can newly cancel to a constant — exactly when the
        pairwise fold would have re-encoded a zero code length.
        """
        nz_a = ~azero
        nz_b = ~bzero
        p4_mask = nz_a & nz_b
        self.stats.counts += np.array(
            [
                int((azero & bzero).sum()),
                int((azero & nz_b).sum()),
                int((nz_a & bzero).sum()),
                int(p4_mask.sum()),
            ],
            dtype=np.int64,
        )
        # pipeline 2 partials become non-constant; 1 stays constant, 3 stays
        # non-constant, 4 is refreshed from the accumulator by the caller.
        np.logical_and(azero, bzero, out=azero)
        return np.nonzero(p4_mask)[0]

    @staticmethod
    def _scatter_rows(
        payload: np.ndarray,
        out_offsets: np.ndarray,
        idx: np.ndarray,
        rows_payload: np.ndarray,
        rows_offsets: np.ndarray,
    ) -> None:
        """Place re-encoded rows for blocks ``idx`` into the output payload.

        Rows are consecutive for consecutive ``idx`` entries, so each run
        of adjacent blocks collapses to one contiguous slice on both sides;
        heavily fragmented index sets fall back to a vectorised scatter.
        """
        if _count_runs(idx) <= idx.size // 8 + 64:
            for s, e in _block_runs(idx):
                dst_lo = int(out_offsets[idx[s]])
                dst_hi = int(out_offsets[idx[e - 1] + 1])
                payload[dst_lo:dst_hi] = rows_payload[
                    int(rows_offsets[s]) : int(rows_offsets[e])
                ]
        else:
            sizes = np.diff(rows_offsets)
            dst = _row_copy_indices(out_offsets[idx], sizes)
            payload[dst] = rows_payload

    @staticmethod
    def _copy_pipeline(
        payload: np.ndarray,
        out_offsets: np.ndarray,
        mask: np.ndarray,
        source: CompressedField,
        out_lengths: np.ndarray,
        block_size: int,
    ) -> None:
        """Pipelines 2/3: verbatim byte copy of the non-constant operand.

        Runs of consecutive blocks copy as single slices (quiet/active
        regions are spatially coherent in real fields); heavily fragmented
        masks fall back to one vectorised gather/scatter.
        """
        idx = np.nonzero(mask)[0]
        if not idx.size:
            return
        src_offsets = source.offsets
        if _count_runs(idx) <= idx.size // 8 + 64:
            for s, e in _block_runs(idx):
                lo, hi = int(idx[s]), int(idx[e - 1] + 1)
                payload[int(out_offsets[lo]) : int(out_offsets[hi])] = source.payload[
                    int(src_offsets[lo]) : int(src_offsets[hi])
                ]
        else:
            sizes = (block_size // 8) * (1 + out_lengths[idx].astype(np.int64))
            src = _row_copy_indices(src_offsets[idx], sizes)
            dst = _row_copy_indices(out_offsets[idx], sizes)
            payload[dst] = source.payload[src]

    # ------------------------------------------------------------------ #
    def reduce(
        self, fields: list[CompressedField], order: str = "fused"
    ) -> CompressedField:
        """Homomorphic sum of ≥ 1 fields.

        ``order`` selects the execution schedule:

        * ``"fused"`` (default) — the k-way kernel of
          :meth:`reduce_fused`: one classification, ``O(k)`` decodes,
          one encode;
        * ``"sequential"`` — pairwise left fold in ring-reduction order;
        * ``"tree"`` — pairwise combining, the schedule tree-based
          collectives use.

        The compressed result is *byte-identical* across all three:
        integer addition is associative and exact, and fixed-length
        encoding is deterministic, so both the schedule and the fused
        execution strategy are pure execution policy — they decide cost,
        never bytes.
        """
        if not fields:
            raise ValueError("reduce requires at least one field")
        if order == "fused":
            return self.reduce_fused(fields)
        if order == "sequential":
            acc = fields[0]
            for nxt in fields[1:]:
                acc = self.add(acc, nxt)
            return acc
        if order == "tree":
            level = list(fields)
            while len(level) > 1:
                nxt_level = [
                    self.add(level[i], level[i + 1])
                    for i in range(0, len(level) - 1, 2)
                ]
                if len(level) % 2:
                    nxt_level.append(level[-1])
                level = nxt_level
            return level[0]
        raise ValueError(
            f"order must be 'fused', 'sequential' or 'tree', got {order!r}"
        )


def homomorphic_sum(
    a: CompressedField, b: CompressedField
) -> CompressedField:
    """Module-level convenience: one homomorphic addition, stats discarded."""
    return HZDynamic(collect_stats=False).add(a, b)
