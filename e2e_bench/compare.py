"""``python -m e2e_bench compare A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate.  Every workload x end-to-end metric gets one
row: both values, the relative delta with its base, the metric's bound
and a verdict.  ``worse`` means B is worse than A by more than the
bound; any ``worse`` makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json

from .spec import END_TO_END, Metric

#: hz_wire_ratio is a count: it must repeat exactly for a seed
EXACT = {"hz_wire_ratio"}
_EXACT_TOL = 1e-12


def verdict(metric: Metric, a: float, b: float) -> tuple[str, str]:
    """(verdict, bound as printed) of going from ``a`` to ``b``."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b - a) / a
    if metric.name in EXACT:
        limit, shown = _EXACT_TOL, "exact"
    else:
        limit, shown = metric.bound, f"{metric.bound:.0%}"
    if worse_by > limit:
        return "worse", shown
    return ("better" if worse_by < -limit else "ok"), shown


def compare_docs(a: dict, b: dict) -> tuple[list[str], int]:
    """Report lines and the number of ``worse`` rows."""
    lines = [
        f"{'workload':<16} {'metric':<17} {'A':>11} {'B':>11} "
        f"{'delta (of A)':>13} {'bound':>10}  verdict"
    ]
    n_worse = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<16} missing from B")
            n_worse += 1
            continue
        for metric in END_TO_END:
            va = wa["end_to_end"].get(metric.name)
            vb = wb["end_to_end"].get(metric.name)
            if va is None or vb is None:
                lines.append(
                    f"{name:<16} {metric.name:<17} {va!s:>11} {vb!s:>11} "
                    f"{'':>13} {'':>10}  n/a (too few samples)"
                )
                continue
            word, bound = verdict(metric, va, vb)
            delta = f"{(vb - va) / va:+.2%}"
            lines.append(
                f"{name:<16} {metric.name:<17} {va:>11.5g} {vb:>11.5g} "
                f"{delta:>13} {bound:>10}  {word}"
            )
            n_worse += word == "worse"
    return lines, n_worse


def compare_main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(
        prog="python -m e2e_bench compare", description=__doc__
    )
    p.add_argument("a", help="base result file (--out of a full run)")
    p.add_argument("b", help="candidate result file")
    args = p.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        lines, n_worse = compare_docs(json.load(fa), json.load(fb))
    print("\n".join(lines))
    print(f"{n_worse} worse" if n_worse else "all within bounds")
    return 1 if n_worse else 0
