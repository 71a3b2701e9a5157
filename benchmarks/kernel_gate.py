"""Kernel roofline gate (CI: the kernel-gate job).

The fast backends exist to move the hot kernels toward the host's memory
bandwidth.  This script enforces that claim with host-independent checks,
so the gate travels between laptops and CI runners without retuning:

1. **availability** — every ``--require`` backend must have loaded; a
   perf job whose backend silently fell back to NumPy measures nothing;
2. **roofline floor** — each gated kernel's throughput, as a *fraction of
   the run's own STREAM-triad baseline*, must not fall below the
   committed floor (``--min-frac``, per ``backend:kernel:frac`` triple);
3. **relative speedup** — a fast backend must actually beat the reference
   on the kernels it reimplements (``--min-speedup fast:ref:kernel:ratio``,
   e.g. ``numba:numpy:encode:5``);
4. **sweep amortisation** — on the NumPy reference backend, one batched
   CPR / DPR sweep over eight 2 KB blocks must be at least
   :data:`SWEEP_FLOOR` times faster than eight single calls: the per-call
   fixed cost is paid once per batch, which is what makes small-message
   collectives viable;
5. **fold against the DOC step it replaces** — on the NumPy reference
   backend, at the 4 KB per-call floor, one HPR must cost no more than
   :data:`FOLD_OVER_DOC_CEILING` times the two DPRs and one CPR a DOC
   round pays for the same reduction (the paper's Table 4 condition, here
   where per-call fixed cost decides it).  A ratio of two measurements of
   the same run, so as host-independent as the sweep gate;
6. **fold against the DOC ring step, at the ring-block size** — on the
   NumPy reference backend, on the dense 256 KB block, one HPR must cost
   no more than :data:`RING_FOLD_OVER_DOC_CEILING` times one DPR plus one
   CPR: what ``ccoll`` pays per ring round for the fold HPR replaces
   (§III-C, here where kernel throughput decides it);
7. **the ring fold as executed, against the paper's HPR** — on the NumPy
   reference backend, at the 256 KB ring block, one ring round's compute
   as the collectives run it (``ring_fold_256kb``: the rank's quantised
   partial plus one received stream, then the encode of the sum) must
   cost no more than :data:`RING_FOLD_OVER_HPR_CEILING` times one
   two-stream HPR (``hpr_256kb``) of the same run: keeping the own
   partial quantised must keep paying for itself.

Usage::

    PYTHONPATH=src python benchmarks/kernel_gate.py
        [--mb 8] [--repeats 3]
        [--require numba]
        [--min-frac numba:encode:0.05 ...]
        [--min-speedup numba:numpy:encode:5 ...]

With no ``--min-frac``/``--min-speedup`` the gate still measures and
reports everything (and enforces ``--require``), so the job log always
carries the roofline table.  Exits non-zero on the first violated gate.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.kernels import (
    format_report,
    require_backend,
    run_kernel_bench,
)


#: minimum speedup of one 8 x 2 KB CPR / DPR sweep over eight single calls
SWEEP_FLOOR = 3.0
#: maximum hpr_4kb / (2 x dpr_4kb + cpr_4kb)
FOLD_OVER_DOC_CEILING = 1.0
#: maximum hpr_256kb / (dpr_256kb + cpr_256kb)
RING_FOLD_OVER_DOC_CEILING = 1.0
#: maximum ring_fold_256kb / hpr_256kb
RING_FOLD_OVER_HPR_CEILING = 0.9


def fold_over_doc(floor: dict) -> float:
    """``hpr_4kb`` over the DOC step it replaces, from ``call_floor`` rows."""
    doc_step = 2 * floor["dpr_4kb"]["seconds"] + floor["cpr_4kb"]["seconds"]
    return floor["hpr_4kb"]["seconds"] / doc_step


def ring_fold_over_doc(floor: dict) -> float:
    """``hpr_256kb`` over one DOC ring round (DPR + add + CPR)."""
    doc_step = floor["dpr_256kb"]["seconds"] + floor["cpr_256kb"]["seconds"]
    return floor["hpr_256kb"]["seconds"] / doc_step


def ring_fold_over_hpr(floor: dict) -> float:
    """``ring_fold_256kb`` over the two-stream ``hpr_256kb``."""
    return floor["ring_fold_256kb"]["seconds"] / floor["hpr_256kb"]["seconds"]


def _parse_triples(specs: list[str], parts: int, flag: str) -> list[list[str]]:
    parsed = []
    for spec in specs:
        fields = spec.split(":")
        if len(fields) != parts:
            raise SystemExit(
                f"{flag} expects {parts} colon-separated fields, got {spec!r}"
            )
        parsed.append(fields)
    return parsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mb", type=float, default=8.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="BACKEND",
        help="backend that must have loaded (repeatable)",
    )
    parser.add_argument(
        "--min-frac",
        action="append",
        default=[],
        metavar="BACKEND:KERNEL:FRAC",
        help="minimum fraction-of-STREAM floor (repeatable)",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="FAST:REF:KERNEL:RATIO",
        help="minimum throughput ratio of FAST over REF (repeatable)",
    )
    args = parser.parse_args(argv)

    frac_gates = _parse_triples(args.min_frac, 3, "--min-frac")
    speedup_gates = _parse_triples(args.min_speedup, 4, "--min-speedup")

    try:
        for name in args.require:
            require_backend(name)
        doc = run_kernel_bench(mb=args.mb, repeats=args.repeats)
    except RuntimeError as exc:
        print(f"KERNEL GATE FAILED\n  - {exc}")
        return 1
    print(format_report(doc))

    backends = doc["backends"]
    failures = []

    def kernel_entry(backend: str, kernel: str):
        entry = backends.get(backend, {}).get(kernel)
        if entry is None:
            failures.append(f"no measurement for {backend}/{kernel}")
        return entry

    for backend, kernel, frac in frac_gates:
        entry = kernel_entry(backend, kernel)
        if entry is None:
            continue
        floor = float(frac)
        if entry["frac_stream"] < floor:
            failures.append(
                f"{backend}/{kernel}: {entry['frac_stream']:.3f} of STREAM, "
                f"floor {floor:.3f} "
                f"({entry['gbps']:.3f} GB/s vs triad {doc['stream']['gbps']:.3f})"
            )

    for fast, ref, kernel, ratio in speedup_gates:
        fast_e = kernel_entry(fast, kernel)
        ref_e = kernel_entry(ref, kernel)
        if fast_e is None or ref_e is None:
            continue
        floor = float(ratio)
        speedup = (
            fast_e["gbps"] / ref_e["gbps"] if ref_e["gbps"] > 0 else float("inf")
        )
        if speedup < floor:
            failures.append(
                f"{fast}/{kernel}: {speedup:.2f}x over {ref}, floor {floor:.2f}x "
                f"({fast_e['gbps']:.3f} vs {ref_e['gbps']:.3f} GB/s)"
            )

    for kernel in ("cpr", "dpr"):
        row = doc["call_floor"]["numpy"][f"{kernel}_8x2kb_sweep"]
        if row["speedup_over_calls"] < SWEEP_FLOOR:
            failures.append(
                f"numpy/{kernel}_8x2kb_sweep: {row['speedup_over_calls']:.2f}x "
                f"over eight calls, floor {SWEEP_FLOOR:.2f}x"
            )

    floor = doc["call_floor"]["numpy"]
    for size, row, doc_step, ratio, ceiling in (
        ("4 KB", "hpr_4kb", "2 x dpr_4kb + cpr_4kb", fold_over_doc(floor),
         FOLD_OVER_DOC_CEILING),
        ("256 KB", "hpr_256kb", "dpr_256kb + cpr_256kb",
         ring_fold_over_doc(floor), RING_FOLD_OVER_DOC_CEILING),
    ):
        print(
            f"[numpy] fold vs DOC step at {size}: "
            f"{row} / ({doc_step}) = {ratio:.2f} (ceiling {ceiling:.2f})"
        )
        if ratio > ceiling:
            failures.append(
                f"numpy/{row}: {ratio:.2f}x the DOC step it replaces "
                f"({doc_step}), ceiling {ceiling:.2f}x"
            )

    ratio = ring_fold_over_hpr(floor)
    print(
        f"[numpy] ring fold vs HPR at 256 KB: ring_fold_256kb / hpr_256kb "
        f"= {ratio:.2f} (ceiling {RING_FOLD_OVER_HPR_CEILING:.2f})"
    )
    if ratio > RING_FOLD_OVER_HPR_CEILING:
        failures.append(
            f"numpy/ring_fold_256kb: {ratio:.2f}x the two-stream HPR "
            f"(hpr_256kb), ceiling {RING_FOLD_OVER_HPR_CEILING:.2f}x"
        )

    if failures:
        print("\nKERNEL GATE FAILED")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"\nkernel gate ok ({len(frac_gates)} roofline floors, "
        f"{len(speedup_gates)} speedup floors, "
        f"sweep floor {SWEEP_FLOOR:.1f}x, "
        f"fold/DOC ceiling {FOLD_OVER_DOC_CEILING:.2f}, "
        f"ring fold/DOC ceiling {RING_FOLD_OVER_DOC_CEILING:.2f}, "
        f"ring fold/HPR ceiling {RING_FOLD_OVER_HPR_CEILING:.2f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
