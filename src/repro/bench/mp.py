"""Multi-process data-plane benchmark + α–β calibration harness.

Shared backend for ``repro mp run`` / ``repro mp calibrate`` and the
committed ``BENCH_mp.json``.  Two jobs:

* :func:`build_case` — a registry of small, seeded schedule × codec ×
  initial-state cases, each one stage of a family-table row
  (:mod:`repro.collectives`) with that row's seed rule, so the CLI, the
  equivalence tests and the calibration loop all run the *same*
  configurations the collectives do;
* :func:`calibrate` — runs the cases on a real :class:`MPCluster`,
  measures wall-clock makespans, and fits them back into the cost
  model's α–β terms via :func:`repro.schedule.cost.fit_alpha_beta`,
  reporting per-family model error.

Calibration methodology: each sample's communication residual is
``makespan − measured compute`` (the codec charges real kernel seconds
into the rank-local clock, so compute is measured, not modelled).  The
structural wire terms come from :func:`wire_summary`; compressed runs
scale the critical-path bytes by the *achieved* ratio (measured wire ÷
plain total), so no compression ratio is ever assumed.  Makespans on a
shared-memory data plane are microseconds-scale and noisy, hence
``repeats`` with best-of selection and a deliberately generous CI
ceiling — the gate catches a broken model (orders of magnitude), not
scheduler jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..collectives import FAMILIES as ROWS
from ..runtime.cluster import SimCluster
from ..runtime.faults import FaultPlan, RetryPolicy
from ..runtime.mp_cluster import MPCluster, MPRun
from ..runtime.nodemap import NodeMap
from ..schedule.cost import (
    DOC_GATHER,
    DOC_REDUCE,
    HZ_REDUCE,
    PLAIN,
    CalibrationSample,
    Discipline,
    fit_alpha_beta,
    wire_summary,
)
from ..schedule.executor import Outcome, ScheduleExecutor
from ..schedule.ir import Schedule
from ..schedule.mp_executor import CodecSpec, MPExecutor

__all__ = [
    "FAMILIES",
    "CALIBRATION_FAMILIES",
    "DEFAULT_ERROR_CEILING",
    "MPCase",
    "build_case",
    "sim_reference",
    "states_equal",
    "calibrate",
    "calibration_rows",
    "samples_from_document",
    "check_document",
]

#: family → (codec kind it uses, the family-table leaf row whose stage and
#: seed rule the case runs, the params bound to it).  A case may run a
#: row's schedule under another codec: ``pipelined-rs`` is the pipelined
#: reduce-scatter stage run plain.
_CASES: dict[str, tuple[str, str, dict]] = {
    "ring-rs": ("plain", "mpi_reduce_scatter", {}),
    "ring-rs-hz": ("homomorphic", "hzccl_reduce_scatter", {}),
    "ring-rs-doc": ("doc-reduce", "ccoll_reduce_scatter", {}),
    "pipelined-rs": ("plain", "pipelined_reduce_scatter", {"chunks": 2}),
    "rabenseifner": ("plain", "rabenseifner_allreduce", {}),
    # direct-reduce's root does a k-way fused fold: homomorphic only
    "direct-reduce": ("homomorphic", "hzccl_reduce_direct", {}),
    # the aggregation service's coalesced plan: several sessions share
    # one incast, the root folds each with its own fused reduction
    "batched-reduce": ("homomorphic", "hzccl_batched_reduce", {"sessions": 3}),
    "bcast": ("compressed-bcast", "compressed_bcast", {}),
    "hierarchical": ("plain", "mpi_hierarchical_allreduce", {"inter": "ring"}),
    "hierarchical-hz": (
        "homomorphic", "hzccl_hierarchical_allreduce", {"inter": "ring"}
    ),
}

#: families ``repro mp run`` accepts (name → codec kind it uses)
FAMILIES = {family: kind for family, (kind, _, _) in _CASES.items()}

#: the calibration sweep's family set (every wire style: plain exchange,
#: pipelined overlap, recursive halving, incast, tree flows, compressed)
CALIBRATION_FAMILIES = (
    "ring-rs",
    "pipelined-rs",
    "rabenseifner",
    "direct-reduce",
    "bcast",
    "ring-rs-hz",
)

#: CI gate on worst per-family relative model error.  Generous on
#: purpose: millisecond-scale makespans on an oversubscribed (often
#: single-core) CI host carry scheduler jitter the two-coefficient model
#: cannot (and should not) absorb; the gate exists to catch a *broken*
#: fit — wrong units, wrong sign, wrong wire terms — which shows up as
#: multiple-× error, not tens of percent.
DEFAULT_ERROR_CEILING = 1.5

_DISCIPLINES: dict[str, Discipline] = {
    "plain": PLAIN,
    "homomorphic": HZ_REDUCE,
    "doc-reduce": DOC_REDUCE,
    "doc-gather": DOC_GATHER,
    "compressed-bcast": PLAIN,  # wire terms are discipline-independent
}


@dataclass
class MPCase:
    """One runnable configuration: schedule + codec spec + fresh states."""

    family: str
    n_ranks: int
    elements: int
    schedule: Schedule
    spec: CodecSpec
    make_state: Callable[[], list] = field(repr=False)
    #: per-rank plain payload size the wire summary is evaluated at
    payload_bytes: int = 0

    @property
    def discipline(self) -> Discipline:
        return _DISCIPLINES[self.spec.kind]


def _smooth_field(elements: int, seed: int) -> np.ndarray:
    """A compressible-but-not-trivial float32 field (seeded)."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 8.0 * np.pi, elements, dtype=np.float32)
    field_ = np.sin(x) + 0.01 * rng.standard_normal(elements)
    return field_.astype(np.float32)


def _rank_fields(n: int, elements: int, seed: int) -> list[np.ndarray]:
    return [_smooth_field(elements, seed + 17 * r) for r in range(n)]


def build_case(
    family: str, n: int, elements: int, seed: int = 0
) -> MPCase:
    """Build one seeded case; ``make_state`` returns a fresh initial state
    each call so a case can be run repeatedly (MP and sim alike)."""
    if family not in _CASES:
        raise ValueError(
            f"unknown family {family!r}; one of {', '.join(sorted(FAMILIES))}"
        )
    kind, name, bound = _CASES[family]
    row = ROWS[name]
    (stage,) = row.stages
    params = {"n": n, "root": 0, "network": None, **bound}
    if "inter" in params:
        per_node = 2 if n % 2 == 0 and n >= 4 else 1
        params["nodemap"] = NodeMap.regular(n, per_node)
    sessions = params.get("sessions", 1)
    batch = [
        _rank_fields(n, elements, seed + 101 * s) for s in range(sessions)
    ]
    # what the row's seed rule takes: the batch of sessions, the
    # broadcast's single payload, or one session's rank arrays
    data: Any = batch[0]
    if row.per_session:
        data = batch
    elif kind == "compressed-bcast":
        data = batch[0][0]
    return MPCase(
        family=family,
        n_ranks=n,
        elements=elements,
        schedule=stage.schedule(**params),
        spec=CodecSpec(
            kind, slots=stage.slots,
            bcast_data=data if kind == "compressed-bcast" else None,
        ),
        make_state=lambda: row.seed(data, params),
        # each rank contributes `sessions` whole vectors, so the plain
        # payload the wire summary prices is the batch total
        payload_bytes=elements * 4 * sessions,
    )


# --------------------------------------------------------------------- #
# sim reference + state comparison (shared by tests and `mp run --verify`)
# --------------------------------------------------------------------- #
def sim_reference(
    case: MPCase,
    plan: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> Outcome:
    """Run the same case on the simulated executor (the oracle)."""
    extra = {} if retry is None else {"retry": retry}
    cluster = SimCluster(case.n_ranks, faults=plan, **extra)
    return ScheduleExecutor(cluster, case.spec.build(cluster)).run(
        case.schedule, case.make_state()
    )


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    to_bytes = getattr(a, "to_bytes", None)
    if callable(to_bytes) and callable(getattr(b, "to_bytes", None)):
        return a.to_bytes() == b.to_bytes()
    return bool(a == b)


def states_equal(a: list, b: list) -> bool:
    """Bit-exact comparison of two rank-state lists."""
    if len(a) != len(b):
        return False
    for sa, sb in zip(a, b):
        if set(sa) != set(sb):
            return False
        if not all(_values_equal(sa[k], sb[k]) for k in sa):
            return False
    return True


# --------------------------------------------------------------------- #
# calibration
# --------------------------------------------------------------------- #
def _measure(
    cluster: MPCluster, case: MPCase, repeats: int
) -> MPRun:
    """Best-of-``repeats`` run of one case (minimum makespan wins)."""
    best: MPRun | None = None
    for _ in range(repeats):
        run = MPExecutor(cluster, case.spec).run(
            case.schedule, case.make_state()
        )
        if best is None or run.makespan_s < best.makespan_s:
            best = run
    assert best is not None
    return best


def calibrate(
    ranks: tuple[int, ...] = (8,),
    elements: tuple[int, ...] = (65536, 262144),
    families: tuple[str, ...] = CALIBRATION_FAMILIES,
    transport: str = "shm",
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Measure every family × ranks × size point and fit α–β.

    Returns the ``BENCH_mp.json`` document: fitted coefficients, one row
    per measured point (measured vs modelled makespan, relative error)
    and the worst error per family.  Prefer one rank count per fit: on an
    oversubscribed host the makespan partly serialises across ranks, so
    rank counts shift the effective per-hop cost in a way a single α
    cannot absorb.
    """
    measured: list[tuple[MPCase, MPRun]] = []
    for n in ranks:
        with MPCluster(n, transport=transport) as cluster:
            for family in families:
                for elems in elements:
                    case = build_case(family, n, elems, seed=seed)
                    measured.append((case, _measure(cluster, case, repeats)))

    samples = []
    for case, run in measured:
        ws = wire_summary(case.schedule, case.discipline, case.payload_bytes)
        # achieved wire scale: 1.0 for plain runs (measured wire equals
        # the plain total exactly), the real compression ratio otherwise
        scale = run.wire / ws.total_bytes if ws.total_bytes > 0 else 1.0
        samples.append(
            CalibrationSample(
                family=case.family,
                hops=ws.hops,
                crit_bytes=ws.crit_bytes * scale,
                measured_s=run.makespan_s,
                compute_s=run.compute_s,
            )
        )
    fit = fit_alpha_beta(samples)

    rows = []
    for (case, run), report in zip(measured, fit.report()):
        rows.append(
            {
                "family": case.family,
                "ranks": case.n_ranks,
                "elements": case.elements,
                "codec": case.spec.kind,
                "hops": report["hops"],
                "crit_bytes": report["crit_bytes"],
                "wire_bytes": run.wire,
                "compute_s": run.compute_s,
                "measured_s": report["measured_s"],
                "modelled_s": report["modelled_s"],
                "rel_err": report["rel_err"],
            }
        )
    return {
        "transport": transport,
        "ranks": list(ranks),
        "elements": list(elements),
        "repeats": repeats,
        "alpha_s": fit.alpha_s,
        "beta_s_per_byte": fit.beta_s_per_byte,
        "bandwidth_GBps": (
            1.0 / fit.beta_s_per_byte / 1e9
            if fit.beta_s_per_byte > 0
            else None
        ),
        "rows": rows,
        "family_errors": fit.family_errors(),
        "max_rel_err": fit.max_rel_err(),
    }


def samples_from_document(doc: dict) -> list[CalibrationSample]:
    """Rebuild the fit's samples from a saved ``BENCH_mp.json`` document.

    ``repro tune run --calibration`` refits α–β from these to score
    candidates against the *measured* fabric instead of the idealized
    model (the rows already carry the achieved-compression wire terms).
    """
    rows = doc.get("rows")
    if not rows:
        raise ValueError("calibration document has no measured rows")
    try:
        return [
            CalibrationSample(
                family=r["family"],
                hops=int(r["hops"]),
                crit_bytes=float(r["crit_bytes"]),
                measured_s=float(r["measured_s"]),
                compute_s=float(r["compute_s"]),
            )
            for r in rows
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"calibration document rows are malformed: {exc}"
        ) from exc


def calibration_rows(doc: dict) -> list[list[str]]:
    """Table rows for :func:`repro.bench.tables.format_table`."""
    out = []
    for r in doc["rows"]:
        out.append(
            [
                r["family"],
                str(r["ranks"]),
                str(r["elements"]),
                f"{r['measured_s'] * 1e6:.0f}",
                f"{r['modelled_s'] * 1e6:.0f}",
                f"{r['rel_err']:.0%}",
            ]
        )
    return out


def check_document(
    doc: dict, ceiling: float = DEFAULT_ERROR_CEILING
) -> list[str]:
    """Sanity-gate a calibration document; returns failure messages."""
    failures = []
    alpha = doc.get("alpha_s")
    beta = doc.get("beta_s_per_byte")
    if not isinstance(alpha, (int, float)) or not np.isfinite(alpha) or alpha < 0:
        failures.append(f"alpha_s is not a finite non-negative number: {alpha!r}")
    if not isinstance(beta, (int, float)) or not np.isfinite(beta) or beta < 0:
        failures.append(
            f"beta_s_per_byte is not a finite non-negative number: {beta!r}"
        )
    if (alpha or 0.0) == 0.0 and (beta or 0.0) == 0.0:
        failures.append("degenerate fit: both coefficients are zero")
    for family, err in sorted(doc.get("family_errors", {}).items()):
        if not np.isfinite(err) or err > ceiling:
            failures.append(
                f"{family}: model error {err:.0%} exceeds the "
                f"{ceiling:.0%} ceiling"
            )
    if not doc.get("rows"):
        failures.append("document has no measured rows")
    return failures
