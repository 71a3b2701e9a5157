"""Command line of the benchmark.

``python -m e2e_bench [options]`` runs workloads; with one
``--workload`` it speaks the driver's protocol (the last line of
standard output is one JSON result).  ``python -m e2e_bench compare
A.json B.json`` compares two result files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compare import compare_main
from .runner import (
    DISTURBED_SPREAD,
    SliceError,
    end_to_end,
    is_correct,
    per_layer,
    plain_pass,
    sentinel_spread,
    traced_pass,
    unit_of,
    write_spans,
)
from .spec import WORKLOAD_BY_NAME, WORKLOADS

#: seconds one workload measures for, over all its rounds
#: (``run_seconds`` of BENCHMARK.json)
DEFAULT_SECONDS = 16
#: fresh worker processes per workload; ``setup_s`` is their median
ROUNDS = 4
SMOKE_CYCLES = 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m e2e_bench", description=__doc__)
    p.add_argument(
        "--workload", action="append", choices=sorted(WORKLOAD_BY_NAME),
        help="workload to run (repeatable; default: all six, interleaved)",
    )
    p.add_argument("--seed", type=int, default=0, help="input seed")
    p.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measuring time per workload, split over its rounds",
    )
    p.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced pass (per-layer metrics, span file) instead of the "
        "plain pass; with several workloads: after the plain pass",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help=f"{SMOKE_CYCLES} cycles per workload, 1 round, every check on",
    )
    p.add_argument("--out", help="write the result document to this file")
    return p


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def print_metrics(title: str, values: dict, suffix: str = "") -> None:
    print(f"== {title}{suffix}")
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>12} {unit_of(name)}")


def driver_result(correct, attempted, failed, values) -> str:
    """The driver's last line: every metric with its value as measured."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit_of(name)}
                for name, value in values.items()
            },
        }
    )


def shape(args) -> tuple[int, int | None]:
    """(rounds, cycles per slice) of the run; only --smoke fixes cycles."""
    return (1, SMOKE_CYCLES) if args.smoke else (ROUNDS, None)


def run_single(args, workload) -> int:
    """One workload, the driver's way: plain pass or traced pass."""
    rounds, cycles = shape(args)
    if args.trace:
        t = traced_pass([workload], args.seed, args.seconds, cycles, log)[
            workload.name
        ]
        values, notes = per_layer(workload, t)
        span_file = write_spans(workload, args.seed, t)
        tallies = t["tallies"].values()
        attempted = sum(x["attempted"] for x in tallies)
        failed = sum(x["failed"] for x in tallies)
        correct = is_correct(
            workload, attempted, failed,
            sum(x["bound_misses"] for x in tallies),
        )
        print_metrics(workload.name, values, f"  (traced; spans: {span_file})")
        for note in notes:
            print(f"  note: {note}")
    else:
        slices = plain_pass(
            [workload], args.seed, args.seconds, rounds, cycles, log
        )[workload.name]
        res = end_to_end(workload, slices, strict_tail=False)
        values, correct = res["end_to_end"], res["correct"]
        attempted, failed = res["attempted"], res["failed"]
        print_metrics(
            workload.name, values,
            f"  (samples {res['n_samples']}, failed {failed}/{attempted})",
        )
        for note in res["notes"] + res["failures"]:
            print(f"  note: {note}")
    print(driver_result(correct, attempted, failed, values))
    return 0 if correct else 1


def run_full(args, workloads) -> int:
    """Several workloads interleaved; prints every metric, writes --out."""
    rounds, cycles = shape(args)
    slices = plain_pass(
        workloads, args.seed, args.seconds, rounds, cycles, log
    )
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "cycles": cycles,
        "meta": slices[workloads[0].name][0]["meta"],
        "workloads": {},
    }
    all_slices = [s for group in slices.values() for s in group]
    ok = True
    for w in workloads:
        res = end_to_end(w, slices[w.name], strict_tail=True)
        ok = ok and res["correct"]
        doc["workloads"][w.name] = res
        print_metrics(
            w.name, res["end_to_end"],
            f"  (samples {res['n_samples']}, "
            f"failed {res['failed']}/{res['attempted']})",
        )
        for note in res["notes"] + res["failures"]:
            print(f"  note: {note}")
    if args.trace:
        traced = traced_pass(workloads, args.seed, args.seconds, cycles, log)
        all_slices += traced.values()
        doc["per_layer"] = {}
        for w in workloads:
            values, notes = per_layer(w, traced[w.name])
            span_file = write_spans(w, args.seed, traced[w.name])
            doc["per_layer"][w.name] = values
            print_metrics(w.name, values, f"  (traced; spans: {span_file})")
            for note in notes:
                print(f"  note: {note}")
    spread = doc["sentinel_spread"] = sentinel_spread(all_slices)
    print(f"== noise sentinel spread {spread:.3f}")
    if spread > DISTURBED_SPREAD:
        print(
            f"  disturbed: the fixed NumPy spin varied by {spread:.0%} over "
            "this run; treat small timing differences as noise"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {args.out}")
    if not ok:
        print("FAILED: over 5 % of ops failed or a verification bound exceeded")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = args.workload or [w.name for w in WORKLOADS]
    workloads = [WORKLOAD_BY_NAME[n] for n in dict.fromkeys(names)]
    try:
        if len(workloads) == 1:
            return run_single(args, workloads[0])
        return run_full(args, workloads)
    except SliceError as exc:
        log(f"error: {exc}")
        return 2

