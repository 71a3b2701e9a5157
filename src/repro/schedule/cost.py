"""Cost-model dry runs over the *same* schedule objects the executor runs.

Where the executor pairs a schedule with a :class:`PayloadCodec` (real
kernels, virtual clocks), :func:`schedule_cost` pairs it with a
:class:`Discipline` — a pure charge table mapping the IR's verbs to
``(bucket, rate)`` pairs — and evaluates the closed-form §III-C costs:

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

Schedules are structurally profiled once per discipline (ranks collapse
to distinct charge rows), so dry-running a 512-rank ring costs roughly a
round loop, not a quarter-million dataclass visits per call.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from ..runtime.clock import BUCKETS, Breakdown
from ..runtime.network import NetworkModel
from ..utils.validation import ensure_positive
from .ir import Schedule

__all__ = [
    "Discipline",
    "PLAIN",
    "DOC_REDUCE",
    "DOC_GATHER",
    "HZ_REDUCE",
    "HZ_GATHER",
    "schedule_cost",
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

    The dry-run analogue of a :class:`~repro.schedule.codecs.PayloadCodec`
    — same verbs, rates instead of kernels.  ``finalize_batched`` selects
    one invocation over all of a finalize op's blocks versus one per
    block, and mirrors what the codecs execute: ``HomomorphicCodec``
    decodes a finalize op's blocks in one ``FZLight.decompress`` sweep,
    while the DOC codecs call the kernel once per block (C-Coll's
    per-chunk decodes — ``DOC_GATHER`` below).  ``prepare`` is charged one
    invocation per op *as the generator emitted it*; the executor may hand
    adjacent same-rank prepares to the codec as one sweep, so for the hz
    disciplines the model's setup term is an upper bound on the executed
    kernel-launch count, never an underestimate.
    """

    name: str
    compressed_wire: bool
    prepare: Charge = ()
    pack: Charge = ()
    fold: Charge = ()
    finalize: Charge = ()
    finalize_batched: bool = True


PLAIN = Discipline("plain", compressed_wire=False, fold=(("CPT", "cpt"),))
DOC_REDUCE = Discipline(
    "doc-reduce",
    compressed_wire=True,
    pack=(("CPR", "cpr"),),
    fold=(("DPR", "dpr"), ("CPT", "cpt")),
)
DOC_GATHER = Discipline(
    "doc-gather",
    compressed_wire=True,
    prepare=(("CPR", "cpr"),),
    finalize=(("DPR", "dpr"),),
    finalize_batched=False,
)
HZ_REDUCE = Discipline(
    "hz-reduce",
    compressed_wire=True,
    prepare=(("CPR", "cpr"),),
    fold=(("HPR", "hpr"),),
    finalize=(("DPR", "dpr"),),
)
#: the fused allreduce's allgather stage: inputs arrive compressed (no
#: prepare) and leave through one batched decode.
HZ_GATHER = Discipline(
    "hz-gather",
    compressed_wire=True,
    finalize=(("DPR", "dpr"),),
)
#: compressed broadcast: one encode at the root, compressed bytes on the
#: tree, one decode per receiving rank (the tuner prices the decode via
#: the generator's ``finalize=True`` pricing variant — the executed
#: schedule decodes on the delivery store, which a dry run cannot see).
HZ_BCAST = Discipline(
    "hz-bcast",
    compressed_wire=True,
    prepare=(("CPR", "cpr"),),
    finalize=(("DPR", "dpr"),),
)


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
# profiles keyed by discipline name.
_PROFILE_CACHE: dict[int, tuple[weakref.ref, dict[str, list]]] = {}

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


def _profile(schedule: Schedule, discipline: Discipline) -> list:
    key = id(schedule)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None and hit[0]() is schedule:
        memo = hit[1]
        cached = memo.get(discipline.name)
        if cached is not None:
            _PROFILE_STATS["hits"] += 1
            return cached
    else:
        memo = {}
        ref = weakref.ref(
            schedule, lambda _, key=key: _PROFILE_CACHE.pop(key, None)
        )
        _PROFILE_CACHE[key] = (ref, memo)

    profile = []
    for rnd in schedule.rounds():
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
            if comm.transport != "faults-only":
                # all-links totals (calibration): a flow comm stands for
                # wire_count concurrent copies of the same message
                tot_nd += comm.wire_count * nd
                tot_w += comm.wire_count * w
                n_msgs += comm.wire_count
                if rnd.kind == "incast":
                    incast.append((nd, w))
                elif wire_max is None or (
                    nd / schedule.n_ranks + w
                    > wire_max[0] / schedule.n_ranks + wire_max[1]
                ):
                    wire_max = (nd, w)
            for bucket, rate in discipline.pack:
                add(serial, comm.src, bucket, rate, nd, w, 1)
            if comm.action == "fold":
                for bucket, rate in discipline.fold:
                    add(serial, comm.dst, bucket, rate, nd, w,
                        1 if comm.fresh else 0)

        for op in rnd.ops:
            nd, w = _coeff(schedule, op.blocks)
            if op.kind == "prepare":
                for bucket, rate in discipline.prepare:
                    add(serial, op.rank, bucket, rate, nd, w,
                        1 if op.fresh else 0)
            elif op.kind == "fold":
                table = over if rnd.overlap else serial
                for bucket, rate in discipline.fold:
                    add(table, op.rank, bucket, rate, nd, w,
                        1 if op.fresh else 0)
            elif op.kind == "fold_fused":
                # the fused rate (k·IFE + FE) already spans all k operands
                # — the size coefficient is one operand, not their sum
                nd1, w1 = _coeff(schedule, op.blocks[:1])
                add(serial, op.rank, "HPR", ("fused", op.fanin), nd1, w1,
                    1 if op.fresh else 0)
            elif op.kind == "finalize":
                n_inv = 1 if discipline.finalize_batched else len(op.blocks)
                for bucket, rate in discipline.finalize:
                    add(serial, op.rank, bucket, rate, nd, w, n_inv)
            # finalize_local: executed functionally, uncharged here — the
            # paper books N−1 decodes by not counting the own-block one

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

    memo[discipline.name] = profile
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


def wire_summary(
    schedule: Schedule, discipline: Discipline, total_bytes: int
) -> WireSummary:
    """The α–β wire terms of ``schedule`` at ``total_bytes`` per rank."""
    ensure_positive(total_bytes, "total_bytes")
    n = schedule.n_ranks

    def nbytes(nd: int, w: float) -> float:
        return nd * (total_bytes / n) + w * total_bytes

    hops, crit, messages, total = 0, 0.0, 0, 0.0
    for _overlap, comm_spec, _rows, _flows, _scale, wire_tot in _profile(
        schedule, discipline
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
    ``compute_s`` is the slowest rank's measured compute, so the residual
    ``comm_s`` isolates the α·hops + β·bytes communication term.
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
    """Fitted α–β coefficients plus the per-sample model report."""

    alpha_s: float
    beta_s_per_byte: float
    samples: tuple[CalibrationSample, ...]

    def modelled_s(self, sample: CalibrationSample) -> float:
        """Modelled makespan: measured compute + fitted α–β comm terms."""
        return (
            sample.compute_s
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
        """The fitted coefficients as a NetworkModel for dry runs.

        Coefficients are floored at tiny positive values because the
        model rejects zero latency/bandwidth; a floored coefficient means
        the fit attributed that term no measurable cost at these sizes.
        """
        alpha = max(self.alpha_s, 1e-9)
        beta = max(self.beta_s_per_byte, 1e-15)
        return NetworkModel(
            latency_s=alpha,
            bandwidth_Bps=1.0 / beta,
            congestion_per_log2=congestion_per_log2,
        )


def fit_alpha_beta(samples) -> CalibrationFit:
    """Least-squares fit of ``comm_s ≈ α·hops + β·crit_bytes``.

    Plain 2×2 normal equations with non-negativity enforced by clamping:
    if the unconstrained solution turns a coefficient negative, that term
    is dropped and the other refit alone — the textbook active-set step
    for a two-variable NNLS, exact here because there are only two
    constraint patterns to try.
    """
    samples = tuple(samples)
    if not samples:
        raise ValueError("fit_alpha_beta needs at least one sample")
    shh = shb = sbb = sht = sbt = 0.0
    for s in samples:
        h, b, t = float(s.hops), float(s.crit_bytes), s.comm_s
        shh += h * h
        shb += h * b
        sbb += b * b
        sht += h * t
        sbt += b * t

    det = shh * sbb - shb * shb
    if det > 0.0:
        alpha = (sht * sbb - sbt * shb) / det
        beta = (sbt * shh - sht * shb) / det
    else:  # degenerate design (collinear or single sample): 1-D fits
        alpha = -1.0
        beta = -1.0
    if alpha < 0.0 or beta < 0.0:
        alpha_only = sht / shh if shh > 0.0 else 0.0
        beta_only = sbt / sbb if sbb > 0.0 else 0.0

        def sse(a: float, b: float) -> float:
            return sum((a * s.hops + b * s.crit_bytes - s.comm_s) ** 2
                       for s in samples)

        alpha, beta = min(
            (max(alpha_only, 0.0), 0.0),
            (0.0, max(beta_only, 0.0)),
            key=lambda ab: sse(*ab),
        )
    return CalibrationFit(
        alpha_s=max(alpha, 0.0),
        beta_s_per_byte=max(beta, 0.0),
        samples=samples,
    )
