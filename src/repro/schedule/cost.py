"""Cost-model dry runs over the *same* schedule objects the executor runs.

Where the executor pairs a schedule with a :class:`PayloadCodec` (real
kernels, virtual clocks), :func:`schedule_cost` pairs it with that
codec's :class:`Discipline` — the pure charge table mapping the IR's
verbs to ``(bucket, rate)`` pairs that every codec class declares once
(:mod:`repro.schedule.codecs`; this module defines the type and builds
no table) — and evaluates the closed-form §III-C costs:

* a phase whose slot the table maps to ``None`` is skipped, as the
  executor skips it;
* per round, each clock bucket is charged the **max over ranks** (the
  bulk-synchronous round closes on its slowest participant);
* ``exchange`` rounds add one transfer of the largest in-flight message,
  ``incast`` rounds serialise per-message transfers on the root's link;
* a *fresh* op pays ``op_overhead_s`` per charge entry; continuations
  (``fresh=False``) and batched finalizes don't — the invocation-count
  accounting behind the Fig. 10 high-node-count dip;
* ``overlap`` rounds cost ``pack + max(wire, fold)`` instead of the sum —
  the chunk-pipelined ring's payoff — so a pipelined schedule's
  ``total_time`` is the sum of round *makespans*, deliberately less than
  the sum of its buckets.

Schedules are structurally profiled once per table (ranks collapse to
distinct charge rows), so dry-running a 512-rank ring costs roughly a
round loop, not a quarter-million dataclass visits per call.  The same
profile yields the α–β wire terms (:func:`wire_summary`) and the block
operations each bucket is charged (:func:`block_counts`).
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Any

import numpy as np

from ..runtime.clock import BUCKETS, Breakdown
from ..runtime.network import NetworkModel
from ..utils.validation import ensure_positive
from .ir import Schedule

__all__ = [
    "Discipline",
    "schedule_cost",
    "block_counts",
    "combine",
    "profile_stats",
    "WireSummary",
    "wire_summary",
    "CalibrationSample",
    "CalibrationFit",
    "fit_alpha_beta",
]

#: charge entries are (clock bucket, rate) with rate one of
#: "cpr"/"dpr"/"hpr"/"cpt" (looked up as ``<rate>_s_per_byte``).
Charge = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Discipline:
    """Pure charge table: what each IR verb costs under one payload style.

    Each :class:`~repro.schedule.codecs.PayloadCodec` class carries one as
    its ``discipline`` — same verbs, rates instead of kernels.
    ``finalize_batched`` selects one invocation over all of a finalize
    op's blocks versus one per block, and mirrors what the codecs execute:
    ``HomomorphicCodec`` decodes a finalize op's blocks in one
    ``FZLight.decompress`` sweep, while the DOC codecs call the kernel once
    per block (C-Coll's per-chunk decodes).  ``prepare`` is charged one
    invocation per op *as the generator emitted it*; the executor may hand
    adjacent same-rank prepares to the codec as one sweep, so for the hz
    tables the model's setup term is an upper bound on the executed
    kernel-launch count, never an underestimate.  A ``fold_fused`` op is
    charged to the ``fold`` bucket at the fused k-way rate.  ``slots`` maps
    a phase slot to its span name (see :meth:`phase_name`).
    """

    name: str
    compressed_wire: bool
    prepare: Charge = ()
    pack: Charge = ()
    fold: Charge = ()
    finalize: Charge = ()
    finalize_batched: bool = True
    slots: tuple[tuple[str, str | None], ...] = ()

    def phase_name(self, slot: str) -> str | None:
        """The span a ``slot`` phase runs under, or ``None``: the phase is
        skipped (executor and dry run alike)."""
        return dict(self.slots).get(slot, slot)


# --------------------------------------------------------------------- #
# structural profiles
# --------------------------------------------------------------------- #
# Block sizes are kept symbolic as (n_default, weight_sum): a block with
# no explicit weight contributes total_bytes/n_ranks (the same expression
# the legacy closed forms used, bit-for-bit), a weighted one w*total.
#
# The cache is keyed by object identity for O(1) lookups but holds only a
# weak reference to the schedule: a dead entry is evicted by the weakref
# callback the moment the schedule is collected, so tuning sweeps over
# thousands of throwaway schedules cannot accumulate profiles, and a
# recycled id() can never serve a stale profile (the old entry is gone
# before the id can be reused).  Each live schedule carries one memo of
# profiles keyed by the table's *value* (two tables may share a name —
# a stage's slot override keeps its codec's), ``None`` for the comms alone.
_PROFILE_CACHE: dict[int, tuple[weakref.ref, dict[Discipline | None, list]]] = {}

# Build/hit counters over the life of the process.  The tuner's candidate
# enumeration depends on profile *reuse* (one build per (schedule,
# discipline), not one per scored message size); the counters make that a
# testable contract instead of a hope (tests/schedule/test_profile_reuse).
_PROFILE_STATS = {"builds": 0, "hits": 0}


def profile_stats() -> dict[str, int]:
    """Snapshot of structural-profile cache traffic (process-wide)."""
    return dict(_PROFILE_STATS)


def _coeff(schedule: Schedule, blocks) -> tuple[int, float]:
    nd, w = 0, 0.0
    for b in blocks:
        bw = schedule.weights.get(b)
        if bw is None:
            nd += 1
        else:
            w += bw
    return nd, w


def _profile(schedule: Schedule, discipline: Discipline | None) -> list:
    """Per-round charge rows and wire terms of ``schedule`` under
    ``discipline`` (``None``: no charges, no phase skipped — the comms
    alone)."""
    key = id(schedule)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None and hit[0]() is schedule:
        memo = hit[1]
        cached = memo.get(discipline)
        if cached is not None:
            _PROFILE_STATS["hits"] += 1
            return cached
    else:
        memo = {}
        ref = weakref.ref(
            schedule, lambda _, key=key: _PROFILE_CACHE.pop(key, None)
        )
        _PROFILE_CACHE[key] = (ref, memo)

    pack, fold, prepare, finalize = (
        getattr(discipline, verb, ())
        for verb in ("pack", "fold", "prepare", "finalize")
    )
    # a phase the table skips is skipped here too, as the executor does
    rounds = [
        rnd
        for phase in schedule.phases
        if discipline is None or discipline.phase_name(phase.slot) is not None
        for rnd in phase.rounds
    ]
    profile = []
    for rnd in rounds:
        serial: dict[int, dict] = defaultdict(dict)
        over: dict[int, dict] = defaultdict(dict)

        def add(table, rank, bucket, rate, nd, w, n_ov):
            entry = table[rank].setdefault((bucket, rate), [0, 0.0, 0])
            entry[0] += nd
            entry[1] += w
            entry[2] += n_ov

        wire_max: tuple[int, float] | None = None
        incast: list[tuple[int, float]] = []
        tot_nd, tot_w, n_msgs = 0, 0.0, 0
        for comm in rnd.comms:
            nd, w = _coeff(schedule, comm.blocks)
            # all-links totals (calibration)
            tot_nd += nd
            tot_w += w
            n_msgs += 1
            if rnd.kind == "incast":
                incast.append((nd, w))
            elif wire_max is None or (
                nd / schedule.n_ranks + w
                > wire_max[0] / schedule.n_ranks + wire_max[1]
            ):
                wire_max = (nd, w)
            for bucket, rate in pack:
                add(serial, comm.src, bucket, rate, nd, w, 1)
            if comm.action == "fold":
                for bucket, rate in fold:
                    add(serial, comm.dst, bucket, rate, nd, w,
                        1 if comm.fresh else 0)

        for op in rnd.ops:
            nd, w = _coeff(schedule, op.blocks)
            if op.kind == "prepare":
                for bucket, rate in prepare:
                    add(serial, op.rank, bucket, rate, nd, w,
                        1 if op.fresh else 0)
            elif op.kind == "fold":
                table = over if rnd.overlap else serial
                for bucket, rate in fold:
                    add(table, op.rank, bucket, rate, nd, w,
                        1 if op.fresh else 0)
            elif op.kind == "fold_fused":
                # the fused rate (k·IFE + FE) already spans all k operands
                # — the size coefficient is one operand, not their sum
                nd1, w1 = _coeff(schedule, op.blocks[:1])
                for bucket, _rate in fold[:1]:
                    add(serial, op.rank, bucket, ("fused", op.fanin), nd1,
                        w1, 1 if op.fresh else 0)
            elif op.kind == "finalize" and finalize:
                n_inv = 1 if discipline.finalize_batched else len(op.blocks)
                for bucket, rate in finalize:
                    add(serial, op.rank, bucket, rate, nd, w, n_inv)
            # finalize_local: executed functionally (the homomorphic codec
            # only dequantises the own block, in the finalize's sweep),
            # uncharged here — the paper books N−1 decodes by not counting
            # the own-block one

        # collapse ranks to distinct (serial, overlap) charge rows — in the
        # symmetric ring all 512 ranks become one row
        def canon(table, rank):
            return tuple(
                sorted((k, tuple(v)) for k, v in table.get(rank, {}).items())
            )

        rows = {
            (canon(serial, r), canon(over, r))
            for r in set(serial) | set(over)
        }
        comm_spec: tuple[str, Any] | None = None
        if rnd.kind == "incast":
            if incast:
                comm_spec = ("incast", tuple(incast))
        elif wire_max is not None:
            comm_spec = ("exchange", wire_max)
        profile.append(
            (
                rnd.overlap,
                comm_spec,
                tuple(rows),
                rnd.flows(schedule.n_ranks),
                rnd.link_scale,
                (tot_nd, tot_w, n_msgs),
            )
        )

    memo[discipline] = profile
    _PROFILE_STATS["builds"] += 1
    return profile


# --------------------------------------------------------------------- #
def schedule_cost(
    schedule: Schedule,
    discipline: Discipline,
    total_bytes: int,
    rates,
    network: NetworkModel,
    multithread: bool = False,
    thread_speedup: float = 6.0,
) -> Breakdown:
    """Dry-run ``schedule`` under ``discipline``: the analytic Breakdown.

    ``rates`` is a :class:`~repro.core.cost_model.CostRates`; multithread
    divides the compute-family rates by ``thread_speedup`` exactly as the
    functional cluster does.
    """
    ensure_positive(total_bytes, "total_bytes")
    if multithread:
        rates = rates.scaled(thread_speedup)
    n = schedule.n_ranks
    ov = rates.op_overhead_s

    def nbytes(nd: int, w: float) -> float:
        return nd * (total_bytes / n) + w * total_bytes

    def rate_of(rate) -> float:
        if isinstance(rate, tuple):  # ("fused", k)
            return rates.fused_hpr_s_per_byte(rate[1])
        return getattr(rates, rate + "_s_per_byte")

    def transfer(nd: int, w: float, flows: int, scale: float) -> float:
        # ``flows`` comes from the Round's declared concurrency (all ranks
        # for flat schedules) — never from n_ranks directly, so an 8-rank
        # intra-node round on a 1024-rank job pays 8-way congestion.
        wire = nbytes(nd, w)
        if discipline.compressed_wire:
            wire /= rates.ratio
        return network.transfer_time(int(wire), flows) / scale

    buckets: dict[str, float] = defaultdict(float)
    total = 0.0
    for overlap, comm_spec, rows, flows, scale, _wire_tot in _profile(
        schedule, discipline
    ):
        comm_time = 0.0
        if comm_spec is not None:
            kind, data = comm_spec
            if kind == "exchange":
                comm_time = transfer(*data, flows, scale)
            else:
                for nd, w in data:
                    comm_time += transfer(nd, w, flows, scale)

        serial_tot = overlap_tot = 0.0
        bucket_max: dict[str, float] = {}
        for srow, orow in rows:
            by_bucket: dict[str, float] = {}
            ssum = osum = 0.0
            for (bucket, rate), (nd, w, n_ov) in srow:
                t = nbytes(nd, w) * rate_of(rate) + n_ov * ov
                by_bucket[bucket] = by_bucket.get(bucket, 0.0) + t
                ssum += t
            for (bucket, rate), (nd, w, n_ov) in orow:
                t = nbytes(nd, w) * rate_of(rate) + n_ov * ov
                by_bucket[bucket] = by_bucket.get(bucket, 0.0) + t
                osum += t
            for bucket, t in by_bucket.items():
                if t > bucket_max.get(bucket, 0.0):
                    bucket_max[bucket] = t
            serial_tot = max(serial_tot, ssum)
            overlap_tot = max(overlap_tot, osum)

        for bucket, t in bucket_max.items():
            buckets[bucket] += t
        buckets["MPI"] += comm_time
        if overlap:
            total += serial_tot + max(comm_time, overlap_tot)
        else:
            total += serial_tot + overlap_tot + comm_time

    full = {b: buckets.get(b, 0.0) for b in BUCKETS}
    return Breakdown(buckets=full, total_time=total)


def block_counts(schedule: Schedule, discipline: Discipline) -> dict[str, int]:
    """Block operations each clock bucket is charged in a dry run.

    Per round, a rank's count is the number of default-weighted blocks
    (``1/n`` of the payload each) its charges cover; the round adds its
    max over ranks, as :func:`schedule_cost` adds its slowest rank's time.
    These count blocks, not kernel invocations: a batched sweep over
    ``k`` blocks counts ``k``.
    """
    counts: dict[str, int] = defaultdict(int)
    for _overlap, _comm, rows, _flows, _scale, _wire in _profile(
        schedule, discipline
    ):
        most: dict[str, int] = {}
        for srow, orow in rows:
            mine: dict[str, int] = defaultdict(int)
            for (bucket, _rate), (nd, _w, _n_ov) in srow + orow:
                mine[bucket] += nd
            for bucket, nd in mine.items():
                most[bucket] = max(most.get(bucket, 0), nd)
        for bucket, nd in most.items():
            counts[bucket] += nd
    return dict(counts)


def combine(*parts: Breakdown) -> Breakdown:
    """Sum stage Breakdowns (reduce-scatter + allgather compositions)."""
    full = {
        b: sum(p.buckets.get(b, 0.0) for p in parts) for b in BUCKETS
    }
    return Breakdown(
        buckets=full, total_time=sum(p.total_time for p in parts)
    )


# --------------------------------------------------------------------- #
# calibration: fitting measured makespans back into the α–β model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class WireSummary:
    """Structural wire terms of one schedule at one payload size.

    ``hops``/``crit_bytes`` are the critical-path α/β terms the closed
    form charges (one transfer of the largest message per exchange round,
    serialised per-message transfers per incast round); ``messages`` and
    ``total_bytes`` sum over *all* links, which is the quantity the
    executors' ``bytes_on_wire`` measures.  Byte terms are plain logical
    sizes — a compressed run's measured wire divided by ``total_bytes``
    yields the achieved compression ratio, which callers apply to
    ``crit_bytes`` before fitting (self-calibrating: no assumed ratio).
    """

    hops: int
    crit_bytes: float
    messages: int
    total_bytes: float


def wire_summary(schedule: Schedule, total_bytes: int) -> WireSummary:
    """The α–β wire terms of ``schedule`` at ``total_bytes`` per rank.

    They come from the comms alone: every phase is walked, whatever a
    codec would skip.
    """
    ensure_positive(total_bytes, "total_bytes")
    n = schedule.n_ranks

    def nbytes(nd: int, w: float) -> float:
        return nd * (total_bytes / n) + w * total_bytes

    hops, crit, messages, total = 0, 0.0, 0, 0.0
    for _overlap, comm_spec, _rows, _flows, _scale, wire_tot in _profile(
        schedule, None
    ):
        tot_nd, tot_w, n_msgs = wire_tot
        messages += n_msgs
        total += nbytes(tot_nd, tot_w)
        if comm_spec is None:
            continue
        kind, data = comm_spec
        if kind == "exchange":
            hops += 1
            crit += nbytes(*data)
        else:  # incast: the root serialises one transfer per message
            hops += len(data)
            crit += sum(nbytes(nd, w) for nd, w in data)
    return WireSummary(
        hops=hops, crit_bytes=crit, messages=messages, total_bytes=total
    )


@dataclass(frozen=True)
class CalibrationSample:
    """One measured run: its structural wire terms and wall-clock times.

    ``crit_bytes`` should already carry the achieved compression ratio
    (measured wire / plain total) when the run was compressed, and
    ``compute_s`` is the measured compute on the critical path (per round,
    the slowest rank's), so the residual ``comm_s`` isolates the per-op
    constant + α·hops + β·bytes term.
    """

    family: str
    hops: int
    crit_bytes: float
    measured_s: float
    compute_s: float = 0.0

    @property
    def comm_s(self) -> float:
        return max(0.0, self.measured_s - self.compute_s)


@dataclass(frozen=True)
class CalibrationFit:
    """Fitted coefficients plus the per-sample model report.

    ``op_s`` is the per-op constant every run pays whatever its hop count
    (starting the run on each rank, closing it): without it a fit charges
    that cost to α, so schedules with more rounds than a ring are
    modelled far slower than they run.
    """

    alpha_s: float
    beta_s_per_byte: float
    samples: tuple[CalibrationSample, ...]
    op_s: float = 0.0

    def modelled_s(self, sample: CalibrationSample) -> float:
        """Modelled makespan: measured compute + the fitted comm terms."""
        return (
            sample.compute_s
            + self.op_s
            + self.alpha_s * sample.hops
            + self.beta_s_per_byte * sample.crit_bytes
        )

    def report(self) -> list[dict]:
        """Per-sample measured vs modelled makespans with relative error."""
        rows = []
        for s in self.samples:
            modelled = self.modelled_s(s)
            denom = max(s.measured_s, 1e-12)
            rows.append(
                {
                    "family": s.family,
                    "hops": s.hops,
                    "crit_bytes": s.crit_bytes,
                    "measured_s": s.measured_s,
                    "modelled_s": modelled,
                    "rel_err": abs(modelled - s.measured_s) / denom,
                }
            )
        return rows

    def family_errors(self) -> dict[str, float]:
        """Worst relative model error per schedule family."""
        worst: dict[str, float] = {}
        for row in self.report():
            fam = row["family"]
            worst[fam] = max(worst.get(fam, 0.0), row["rel_err"])
        return worst

    def max_rel_err(self) -> float:
        return max((r["rel_err"] for r in self.report()), default=0.0)

    def as_network(self, congestion_per_log2: float = 0.0) -> NetworkModel:
        """The fitted wire coefficients as a NetworkModel for dry runs.

        The per-op constant is left out: every candidate pays it once, so
        it cannot change which one is cheapest.  Coefficients are floored
        at tiny positive values because the model rejects zero
        latency/bandwidth; a floored coefficient means the fit attributed
        that term no measurable cost at these sizes.
        """
        alpha = max(self.alpha_s, 1e-9)
        beta = max(self.beta_s_per_byte, 1e-15)
        return NetworkModel(
            latency_s=alpha,
            bandwidth_Bps=1.0 / beta,
            congestion_per_log2=congestion_per_log2,
        )


def fit_alpha_beta(samples) -> CalibrationFit:
    """Non-negative least-squares fit of ``comm_s ≈ op + α·hops +
    β·crit_bytes`` in relative terms.

    Each sample's equation is divided by its measured makespan, so the
    fit minimises the squared *relative* error the calibration gate
    judges; unweighted, the few slowest runs (hz rounds on an
    oversubscribed host) set every coefficient and the fast plain runs
    miss by more than their own makespan.  Three coefficients, so the
    exact NNLS is a scan of their supports: the unconstrained solution on
    each subset of terms, kept when no coefficient is negative, and the
    smallest residual wins (the optimum's support is one of the subsets).
    Smaller supports are tried first and keep a tie, α before β before
    the constant (one sample is all α, as a one-term fit would make it).
    """
    samples = tuple(samples)
    if not samples:
        raise ValueError("fit_alpha_beta needs at least one sample")
    weight = np.array([1.0 / max(s.measured_s, 1e-12) for s in samples])
    columns = np.array(
        [[s.hops, s.crit_bytes, 1.0] for s in samples], dtype=np.float64
    ) * weight[:, None]
    target = np.array([s.comm_s for s in samples]) * weight
    # scale each column to unit size so the solve is well conditioned
    norms = np.linalg.norm(columns, axis=0)
    norms[norms == 0.0] = 1.0
    columns = columns / norms
    best, best_sse = np.zeros(3), float(target @ target)
    for size in (1, 2, 3):
        for support in combinations(range(3), size):
            cols = list(support)
            coef = np.linalg.lstsq(columns[:, cols], target, rcond=None)[0]
            if (coef < 0.0).any():
                continue
            full = np.zeros(3)
            full[cols] = coef
            resid = columns @ full - target
            sse = float(resid @ resid)
            if sse < best_sse * (1.0 - 1e-12):
                best, best_sse = full, sse
    alpha, beta, op = best / norms
    return CalibrationFit(
        alpha_s=float(alpha),
        beta_s_per_byte=float(beta),
        samples=samples,
        op_s=float(op),
    )
