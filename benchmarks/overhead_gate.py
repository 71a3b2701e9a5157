"""Observability overhead gate (CI: the trace-smoke job).

The observability layer promises that *disabled* tracing/metrics cost
nothing measurable on the kernel hot path: ``get_backend`` must hand out
the raw backend object (no wrappers), and the per-site ``METRICS.enabled``
branches must vanish in the noise.  This script enforces both on the same
kernels the bench-smoke job measures:

1. **structural check** — with metrics disabled, dispatch resolves to the
   identical uninstrumented backend object;
2. **timing gate** — encode/decode/decode_selected through the dispatch
   path (metrics disabled) must be within ``--tolerance`` (default 5%) of
   calling the raw backend callables directly, best-of-N on each side,
   the raw and the dispatched call taking turns round by round (the
   order flipping every round) so a box whose speed drifts during the
   run slows both sides alike;
3. **informational** — the same kernels with metrics *enabled*, so the
   log shows what turning instrumentation on actually costs.

Usage::

    PYTHONPATH=src python benchmarks/overhead_gate.py [--mb 2]
        [--repeats 5] [--tolerance 0.05]

Exits non-zero on the first violated gate.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.bench.kernels import _BLOCK_SIZE, _make_deltas
from repro.compression import encoding
from repro.kernels.dispatch import get_backend
from repro.obs.metrics import METRICS, metrics_enabled


def _workload(mb: float, seed: int = 7):
    n_elements = max(
        _BLOCK_SIZE, int(mb * 1e6 / 4) // _BLOCK_SIZE * _BLOCK_SIZE
    )
    blocks = _make_deltas(n_elements, seed=seed)
    lens, payload, offsets = encoding.encode_into(blocks, _BLOCK_SIZE)
    sel = np.random.default_rng(3).permutation(lens.size)[
        : max(1, lens.size // 4)
    ]
    return blocks, lens, payload, offsets, sel


def _time_kernels(sides: dict[str, dict], repeats: int) -> dict[str, dict]:
    """Best seconds of every side's every kernel.

    Round by round, each kernel runs once on every side in turn, and the
    sides' order flips every round: a box whose speed drifts slows every
    side alike, and the warm caches a call leaves its successor favour
    no side.
    """
    names = list(sides)
    best = {side: dict.fromkeys(fns, float("inf")) for side, fns in sides.items()}
    for fns in sides.values():  # warm-up
        for fn in fns.values():
            fn()
    for turn in range(repeats):
        order = names if turn % 2 == 0 else names[::-1]
        for op in best[names[0]]:
            for side in order:
                t0 = time.perf_counter()
                sides[side][op]()
                best[side][op] = min(best[side][op], time.perf_counter() - t0)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mb", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=0.05)
    args = parser.parse_args(argv)

    METRICS.disable()
    raw = get_backend()
    if get_backend() is not raw:
        print("FAIL: disabled dispatch does not return a stable raw backend")
        return 1
    with metrics_enabled():
        if get_backend() is raw:
            print("FAIL: enabled dispatch did not swap in instrumentation")
            return 1
    if get_backend() is not raw:
        print("FAIL: disabled dispatch still returns the instrumented twin")
        return 1
    print(f"structural check ok: disabled get_backend() -> raw {raw.name!r}")

    blocks, lens, payload, offsets, sel = _workload(args.mb)

    def fns(encode, decode, decode_selected):
        return {
            "encode": lambda: encode(blocks, _BLOCK_SIZE),
            "decode": lambda: decode(
                lens, payload, _BLOCK_SIZE, offsets=offsets
            ),
            "decode_selected": lambda: decode_selected(
                sel, lens, offsets, payload, _BLOCK_SIZE
            ),
        }

    # the raw backend callables, no dispatch, against the production
    # disabled path: through dispatch, metrics off
    dispatched = fns(
        encoding.encode_into, encoding.decode_blocks, encoding.decode_selected
    )
    timed = _time_kernels(
        {
            "raw": fns(
                raw.encode_with_offsets, raw.decode_blocks, raw.decode_selected
            ),
            "disabled": dispatched,
        },
        args.repeats,
    )
    floor, disabled = timed["raw"], timed["disabled"]
    with metrics_enabled() as registry:
        enabled = _time_kernels({"enabled": dispatched}, args.repeats)["enabled"]
        observed = sorted(
            k for k in registry.counters() if k.startswith("kernel.")
        )

    failures = []
    print(
        f"\n{'kernel':<16} {'raw ms':>9} {'disabled ms':>12} "
        f"{'overhead':>9} {'enabled ms':>11}"
    )
    for op in floor:
        overhead = disabled[op] / floor[op] - 1.0
        print(
            f"{op:<16} {floor[op] * 1e3:9.3f} {disabled[op] * 1e3:12.3f} "
            f"{overhead:+8.1%} {enabled[op] * 1e3:11.3f}"
        )
        if overhead > args.tolerance:
            failures.append(
                f"{op}: disabled path {overhead:+.1%} over the raw floor "
                f"(tolerance {args.tolerance:.0%})"
            )
    if not observed:
        failures.append("enabled run recorded no kernel.* metrics")
    else:
        print(f"enabled run recorded {len(observed)} kernel.* counters")

    if failures:
        print("\nOVERHEAD GATE FAILED")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\noverhead gate ok (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
