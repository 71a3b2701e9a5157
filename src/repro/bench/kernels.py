"""Kernel-level perf-regression harness (``repro bench-kernels``).

Measures the throughput of the hot kernels — the encode
(``encode_blocks``, row ``encode``), ``decode_blocks``,
``decode_selected`` and the fused k-way ``reduce_fused`` at
k ∈ {2, 8, 16} — per available backend, on the
same random-walk field family every run, and emits the machine-readable
``BENCH_kernels.json`` that CI diffs against the committed baseline.

Throughput is **uncompressed** bytes over best-of-N wall time (GB/s,
decimal), the figure of merit the paper reports for its compression and
homomorphic kernels.  Absolute numbers are host-dependent, so every run
also measures a local **STREAM triad** baseline (``a = b + s·c`` over
arrays far larger than cache, 24 bytes of traffic per element — the
textbook memory-bandwidth roofline) and records each kernel additionally
as a *fraction of STREAM*.  The fraction is the roofline position: it is
comparable across hosts in a way raw GB/s never is, and it is what
``benchmarks/kernel_gate.py`` gates on.  The committed baseline is only
used for *relative* regression checks (default gate: >2x slower fails).

Throughput at 16 MB says nothing about what a 2 KB ring block pays, so
every run also records the **per-call floor** (``call_floor``): one CPR /
DPR / HPR call on a 4 KB field, and CPR / DPR over eight 2 KB blocks both
as eight calls and as one batched sweep — the amortisation
``benchmarks/kernel_gate.py`` gates on — plus one CPR / DPR / HPR call on
the dense 256 KB ``fold_split`` block, the ring step the gate weighs the
fold against.  The ``hpr_*`` rows are the paper's HPR (two compressed
operands); the ``ring_fold_*`` rows are one ring round's compute as the
collectives run it — a quantised own partial plus one received stream,
then the encode of the sum.  Those rows repeat one input, so the sum's
stream layout is built once and found after; ``cpr_2kb`` and
``ring_fold_2kb`` (a ``sim-small`` ring block) take a fresh input on
every call, from more than the layout cache keeps, so every encode
builds its layout as in a real ring.  ``fold_split`` takes one dense
k = 2 fold apart (engine wrapper, operand decodes, accumulate, classify +
encode, result container), the stages timed inside the fold, at a 2 KB
ring block, the 4 KB floor probe and a 256 KB block: the biggest row is
where the next fold optimisation should look.
"""

from __future__ import annotations

import json
import platform
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..compression.encoding import (
    decode_blocks,
    decode_selected,
    encode_blocks,
    payload_offsets,
)
from ..compression.format import CompressedField, QuantisedField
from ..compression.fzlight import FZLight
from ..homomorphic import hzdynamic
from ..homomorphic.hzdynamic import HZDynamic
from ..kernels.dispatch import (
    KernelBackend,
    available_backends,
    backend_status,
    use_backend,
)
from ..kernels.numpy_backend import make_reduce_fused
from ..kernels.plan import LAYOUT_CACHE_ENTRIES
from .timing import best_of, best_of_each, throughput_gbps

__all__ = [
    "REDUCE_KS",
    "FOLD_STAGES",
    "stream_triad_gbps",
    "require_backend",
    "run_kernel_bench",
    "compare_to_baseline",
    "format_report",
]

#: Operand counts for the fused-reduction measurements.
REDUCE_KS = (2, 8, 16)

_BLOCK_SIZE = 32
_SELECT_FRACTION = 0.25

#: The collectives' compressor geometry and error bound (CollectiveConfig).
_FLOOR_THREADBLOCKS = 18
_FLOOR_EB = 1e-4
#: floor calls take ~0.1–1 ms: best-of needs many more runs than a 16 MB kernel
_FLOOR_REPEAT_SCALE = 20
#: calls per turn of the rows that take a fresh input every call
_FRESH_CALLS = 64

#: The stages one dense fold is split into, in execution order.
FOLD_STAGES = ("wrapper", "decode", "accumulate", "classify_encode", "container")
#: float32 elements per operand of the split: a ``sim-small`` ring block,
#: the floor probe, a ``sim-large`` / ``mp-ring`` block
_SPLIT_ELEMENTS = {"2kb": 512, "4kb": 1024, "256kb": 65536}


def stream_triad_gbps(mb: float = 16.0, repeats: int = 3) -> dict[str, Any]:
    """Measure the host's STREAM-triad bandwidth (the roofline denominator).

    ``a = b + s·c`` over contiguous float64 arrays sized well past cache;
    the conventional STREAM accounting charges 24 bytes per element (two
    reads + one write).  Best-of-N like every other measurement here.
    """
    n = max(1, int(mb * 1e6 / 8))
    b = np.full(n, 1.5)
    c = np.full(n, 0.25)
    a = np.empty(n)

    def triad() -> None:
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    t = best_of(triad, repeats=repeats)
    return {
        "seconds": t.seconds,
        "gbps": throughput_gbps(24 * n, t.seconds),
        "mb": n * 8 / 1e6,
    }


def require_backend(name: str) -> None:
    """Raise ``RuntimeError`` (with the probe error) unless ``name`` loaded.

    Backs ``repro bench-kernels --require <backend>``: CI perf jobs must
    fail loudly when the backend they exist to measure silently fell back
    to NumPy.
    """
    status = backend_status()
    state = status.get(name)
    if state is None:
        raise RuntimeError(
            f"unknown kernel backend {name!r}; known: {', '.join(sorted(status))}"
        )
    if state != "ok":
        raise RuntimeError(f"required kernel backend {name!r} unavailable: {state}")


def _make_deltas(n_elements: int, seed: int = 7) -> np.ndarray:
    """Quantised Lorenzo deltas of a float32 random walk (the bench field)."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.standard_normal(n_elements)).astype(np.float32)
    q = np.round(walk / (2 * 1e-3)).astype(np.int64)
    deltas = np.empty_like(q)
    deltas[0] = q[0]
    deltas[1:] = q[1:] - q[:-1]
    return deltas.reshape(-1, _BLOCK_SIZE)


def _make_fields(k: int, n_elements: int, seed: int = 11) -> list[CompressedField]:
    """k homomorphically compatible operands with mixed block classes."""
    rng = np.random.default_rng(seed)
    nb = n_elements // _BLOCK_SIZE
    fields = []
    for j in range(k):
        blocks = _make_deltas(n_elements, seed=seed + j)
        # zero out a changing ~30% of blocks so constant / single-owner /
        # accumulate classes all show up, like real partially-sparse ranks
        zero = rng.random(nb) < 0.3
        blocks[zero] = 0
        lens, payload = encode_blocks(blocks, _BLOCK_SIZE)
        fields.append(
            CompressedField(
                n=n_elements,
                error_bound=1e-3,
                block_size=_BLOCK_SIZE,
                n_threadblocks=1,
                outliers=np.zeros(1, dtype=np.int64),
                code_lengths=lens,
                payload=payload,
            )
        )
    return fields


def _bench_backend(
    backend: str, n_elements: int, repeats: int
) -> dict[str, Any]:
    nbytes = n_elements * 4  # the field is a float32 array on the wire
    blocks = _make_deltas(n_elements)
    with use_backend(backend):
        lens, payload = encode_blocks(blocks, _BLOCK_SIZE)
        offsets = payload_offsets(lens, _BLOCK_SIZE)
        sel = np.random.default_rng(3).permutation(lens.size)[
            : max(1, int(lens.size * _SELECT_FRACTION))
        ]
        kernels: dict[str, Any] = {}

        t = best_of(lambda: encode_blocks(blocks, _BLOCK_SIZE), repeats=repeats)
        kernels["encode"] = {
            "seconds": t.seconds,
            "gbps": throughput_gbps(nbytes, t.seconds),
        }
        t = best_of(
            lambda: decode_blocks(lens, payload, _BLOCK_SIZE, offsets=offsets),
            repeats=repeats,
        )
        kernels["decode"] = {
            "seconds": t.seconds,
            "gbps": throughput_gbps(nbytes, t.seconds),
        }
        t = best_of(
            lambda: decode_selected(sel, lens, offsets, payload, _BLOCK_SIZE),
            repeats=repeats,
        )
        sel_bytes = sel.size * _BLOCK_SIZE * 4
        kernels["decode_selected"] = {
            "seconds": t.seconds,
            "gbps": throughput_gbps(sel_bytes, t.seconds),
        }

        engine = HZDynamic(collect_stats=False)
        for k in REDUCE_KS:
            fields = _make_fields(k, n_elements)
            t = best_of(lambda: engine.reduce_fused(fields), repeats=repeats)
            kernels[f"reduce_fused_k{k}"] = {
                "seconds": t.seconds,
                "gbps": throughput_gbps(k * nbytes, t.seconds),
            }
    return kernels


def _dense_pair(n: int) -> list[np.ndarray]:
    """The two float32 random walks of ``n`` elements a dense fold folds."""
    rng = np.random.default_rng(n)
    return [np.cumsum(rng.normal(0, 0.02, n)).astype(np.float32) for _ in range(2)]


def _in_turn(items: list, fn) -> Callable[[], None]:
    """A case that calls ``fn`` on the next :data:`_FRESH_CALLS` of
    ``items``, wrapping around: each call of the case is that many calls."""
    at = [0]

    def case() -> None:
        start = at[0]
        for i in range(start, start + _FRESH_CALLS):
            fn(items[i % len(items)])
        at[0] = (start + _FRESH_CALLS) % len(items)

    return case


def _bench_call_floor(backend: str, repeats: int) -> dict[str, Any]:
    """Per-call fixed cost on tiny fields, where orchestration is the work,
    and the same three calls on the dense 256 KB ``fold_split`` block; at
    both sizes also one ring round's fold as the collectives run it (the
    rank's own partial quantised, one received stream, the sum coded)."""
    rng = np.random.default_rng(5)

    def walk(n: int) -> np.ndarray:
        return np.cumsum(rng.normal(0, 0.02, n)).astype(np.float32)

    comp = FZLight(block_size=_BLOCK_SIZE, n_threadblocks=_FLOOR_THREADBLOCKS)
    engine = HZDynamic(collect_stats=False)
    field_a, field_b = walk(1024), walk(1024)
    blocks = [walk(512) for _ in range(8)]
    ring_walks = _dense_pair(_SPLIT_ELEMENTS["256kb"])
    def ring_fold(own: QuantisedField, received: CompressedField):
        # one ring round's compute: fold the received stream into the
        # rank's quantised partial, then code the sum it sends next; the
        # fold consumes its partial, so each call folds a fresh copy
        partial = replace(own, deltas=own.deltas.copy())
        return comp.compress(engine.reduce_fused((partial, received)))

    # sim-small's ring rounds, one fresh signature per call: more inputs
    # than the layout cache keeps, taken in turn, so every encode builds
    # its layout as a ring round's does
    cycle = LAYOUT_CACHE_ENTRIES + _FRESH_CALLS
    ring_2kb = [walk(512) for _ in range(2 * cycle)]

    with use_backend(backend):
        own_2kb = comp.quantise(ring_2kb[:cycle], abs_eb=_FLOOR_EB)
        received_2kb = [comp.compress(w, abs_eb=_FLOOR_EB) for w in ring_2kb[cycle:]]
        for field in received_2kb:  # its sender built the layout
            field.layout.staging
        pair = comp.compress([field_a, field_b], abs_eb=_FLOOR_EB)
        fields = comp.compress(blocks, abs_eb=_FLOOR_EB)
        ring = comp.compress(ring_walks, abs_eb=_FLOOR_EB)
        own_4kb = comp.quantise(field_a, abs_eb=_FLOOR_EB)
        own_256kb = comp.quantise(ring_walks[0], abs_eb=_FLOOR_EB)
        cases = {
            "cpr_4kb": lambda: comp.compress(field_a, abs_eb=_FLOOR_EB),
            "dpr_4kb": lambda: comp.decompress(pair[0]),
            "hpr_4kb": lambda: engine.reduce_fused(pair),
            "ring_fold_4kb": lambda: ring_fold(own_4kb, pair[1]),
            "cpr_2kb": _in_turn(own_2kb, lambda q: comp.compress([q])),
            "ring_fold_2kb": _in_turn(
                list(zip(own_2kb, received_2kb)), lambda p: ring_fold(*p)
            ),
            "cpr_256kb": lambda: comp.compress(ring_walks[0], abs_eb=_FLOOR_EB),
            "dpr_256kb": lambda: comp.decompress(ring[0]),
            "hpr_256kb": lambda: engine.reduce_fused(ring),
            "ring_fold_256kb": lambda: ring_fold(own_256kb, ring[1]),
            "cpr_8x2kb_calls": lambda: [
                comp.compress(b, abs_eb=_FLOOR_EB) for b in blocks
            ],
            "cpr_8x2kb_sweep": lambda: comp.compress(blocks, abs_eb=_FLOOR_EB),
            "dpr_8x2kb_calls": lambda: [comp.decompress(f) for f in fields],
            "dpr_8x2kb_sweep": lambda: comp.decompress(fields),
        }
        # the gates read these rows as ratios of one another
        rows = {
            name: {"seconds": seconds}
            for name, seconds in best_of_each(
                cases, repeats=repeats, warmup=3
            ).items()
        }
    for name in ("cpr_2kb", "ring_fold_2kb"):
        rows[name]["seconds"] /= _FRESH_CALLS  # per call, not per turn
    for kernel in ("cpr", "dpr"):
        rows[f"{kernel}_8x2kb_sweep"]["speedup_over_calls"] = (
            rows[f"{kernel}_8x2kb_calls"]["seconds"]
            / rows[f"{kernel}_8x2kb_sweep"]["seconds"]
        )
    return rows


@contextmanager
def _engine_kernels(backend: KernelBackend):
    """Make ``HZDynamic`` resolve ``backend`` whatever the registry says."""
    original = hzdynamic.get_backend
    hzdynamic.get_backend = lambda: backend
    try:
        yield
    finally:
        hzdynamic.get_backend = original


def _fold_stages(
    kernels: KernelBackend, pair: list[CompressedField], repeats: int
) -> dict[str, Any]:
    """Seconds per stage of ``HZDynamic().reduce_fused(pair)``, and the fold.

    The stages are timed inside the fold, not each on its own: a kernel
    called alone in a loop runs warmer than it does between the others, and
    the difference is a fifth of a 2 KB fold.  The engine runs over the
    reference k-way pipeline (:func:`make_reduce_fused` — what the NumPy
    backend runs) on ``kernels``' own ``decode_blocks`` and
    ``encode_with_offsets`` (stage ``classify_encode``), each behind a
    stopwatch; ``accumulate`` is the
    pipeline less those two (zero-fill, adds, the statistics' zero
    tracking, glue), ``wrapper`` the engine less the pipeline and less the
    ``container`` it ends with, which is timed apart.  Reported: the split
    of the fastest staged run, beside the best unstaged ``fold``;
    ``stages_over_fold`` is their ratio, i.e. what the stopwatches cost.
    """
    engine = HZDynamic()  # statistics on, as in the collectives
    spent = dict.fromkeys(("decode", "classify_encode", "pipeline"), 0.0)

    def staged(fn, stage):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[stage] += time.perf_counter() - t0
            return out

        return call

    pipeline = make_reduce_fused(
        staged(kernels.decode_blocks, "decode"),
        staged(kernels.encode_with_offsets, "classify_encode"),
    )
    stopwatched = replace(kernels, reduce_fused=staged(pipeline, "pipeline"))

    # staged and unstaged runs alternate, so both see the same box
    fold, best = float("inf"), None
    for run in range(repeats + 3):  # three warm-ups, as best_of
        spent.update(dict.fromkeys(spent, 0.0))
        with _engine_kernels(stopwatched):
            t0 = time.perf_counter()
            folded = engine.reduce_fused(pair)
            total = time.perf_counter() - t0
        with _engine_kernels(kernels):
            t0 = time.perf_counter()
            engine.reduce_fused(pair)
            plain = time.perf_counter() - t0
        if run >= 3:
            fold = min(fold, plain)
            if best is None or total < best[0]:
                best = (total, dict(spent))
    total, spent = best

    a = pair[0]
    weights = np.ones(len(pair), dtype=np.int64)
    container = best_of(
        lambda: CompressedField(
            n=a.n,
            error_bound=a.error_bound,
            block_size=a.block_size,
            n_threadblocks=a.n_threadblocks,
            outliers=weights @ np.array([f.outliers for f in pair]),
            predictor=a.predictor,
            rows=a.rows,
            cols=a.cols,
            code_lengths=folded.code_lengths,
            payload=folded.payload,
            _offsets=folded.offsets,
        ),
        repeats=repeats,
        warmup=3,
    ).seconds
    return {
        "fold": fold,
        "wrapper": total - spent["pipeline"] - container,
        "decode": spent["decode"],
        "accumulate": spent["pipeline"]
        - spent["decode"]
        - spent["classify_encode"],
        "classify_encode": spent["classify_encode"],
        "container": container,
        "stages_over_fold": total / fold,
    }


def _bench_fold_split(backend: str, repeats: int) -> dict[str, Any]:
    """One dense k = 2 fold at the facade geometry, split by stage."""
    comp = FZLight(block_size=_BLOCK_SIZE, n_threadblocks=_FLOOR_THREADBLOCKS)
    split = {}
    with use_backend(backend) as kernels:
        for label, n in _SPLIT_ELEMENTS.items():
            pair = comp.compress(_dense_pair(n), abs_eb=_FLOOR_EB)
            split[label] = _fold_stages(kernels, pair, repeats)
    return split


def run_kernel_bench(
    mb: float = 16.0,
    repeats: int = 3,
    backends: tuple[str, ...] | None = None,
    require: tuple[str, ...] | None = None,
) -> dict[str, Any]:
    """Run the harness; returns the ``BENCH_kernels.json`` document.

    ``require`` names backends that must have loaded — a missing one
    raises :class:`RuntimeError` with its probe error before anything is
    measured.  Every kernel entry carries both ``gbps`` and
    ``frac_stream`` (its GB/s over the run's own STREAM-triad baseline).
    """
    for name in require or ():
        require_backend(name)
    n_elements = max(_BLOCK_SIZE, int(mb * 1e6 / 4) // _BLOCK_SIZE * _BLOCK_SIZE)
    if backends is None:
        backends = available_backends()
    stream = stream_triad_gbps(mb=mb, repeats=repeats)
    results = {
        name: _bench_backend(name, n_elements, repeats) for name in backends
    }
    for kernels in results.values():
        for entry in kernels.values():
            entry["frac_stream"] = (
                entry["gbps"] / stream["gbps"] if stream["gbps"] > 0 else 0.0
            )
    call_floor = {
        name: _bench_call_floor(name, repeats * _FLOOR_REPEAT_SCALE)
        for name in backends
    }
    fold_split = {
        name: _bench_fold_split(name, repeats * _FLOOR_REPEAT_SCALE)
        for name in backends
    }
    return {
        "bench": "kernels",
        "field_mb": n_elements * 4 / 1e6,
        "block_size": _BLOCK_SIZE,
        "repeats": repeats,
        "reduce_ks": list(REDUCE_KS),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "stream": stream,
        "backend_status": backend_status(),
        "backends": results,
        "call_floor": call_floor,
        "fold_split": fold_split,
    }


def compare_to_baseline(
    current: dict[str, Any], baseline: dict[str, Any], tolerance: float = 2.0
) -> list[str]:
    """Regressions (``> tolerance×`` slower than baseline), empty if clean.

    Only kernels present in both documents are compared, so adding a
    backend or a kernel never fails the gate by itself.  Per-call floor
    rows are compared the same way, on seconds.
    """
    failures = []
    for backend, base_rows in baseline.get("call_floor", {}).items():
        cur_rows = current.get("call_floor", {}).get(backend, {})
        for row, base in base_rows.items():
            cur = cur_rows.get(row)
            if cur is None or base["seconds"] <= 0:
                continue
            slowdown = cur["seconds"] / base["seconds"]
            if slowdown > tolerance:
                failures.append(
                    f"{backend}/{row}: {cur['seconds'] * 1e6:.0f} us vs baseline "
                    f"{base['seconds'] * 1e6:.0f} us ({slowdown:.2f}x slower, "
                    f"tolerance {tolerance:.2f}x)"
                )
    for backend, base_kernels in baseline.get("backends", {}).items():
        cur_kernels = current.get("backends", {}).get(backend)
        if cur_kernels is None:
            continue
        for kernel, base in base_kernels.items():
            cur = cur_kernels.get(kernel)
            if cur is None or base["gbps"] <= 0:
                continue
            slowdown = base["gbps"] / cur["gbps"] if cur["gbps"] > 0 else float("inf")
            if slowdown > tolerance:
                failures.append(
                    f"{backend}/{kernel}: {cur['gbps']:.3f} GB/s vs baseline "
                    f"{base['gbps']:.3f} GB/s ({slowdown:.2f}x slower, "
                    f"tolerance {tolerance:.2f}x)"
                )
    return failures


def format_report(doc: dict[str, Any]) -> str:
    """Human-readable table of a harness document."""
    lines = [
        f"kernel bench @ {doc['field_mb']:.1f} MB field, "
        f"best of {doc['repeats']} (GB/s of uncompressed bytes)"
    ]
    stream = doc.get("stream")
    if stream:
        lines.append(
            f"STREAM triad baseline: {stream['gbps']:.3f} GB/s "
            f"(roofline denominator)"
        )
    for backend, kernels in doc["backends"].items():
        lines.append(f"[{backend}]")
        for kernel, r in kernels.items():
            frac = (
                f"  {100 * r['frac_stream']:5.1f}% of STREAM"
                if "frac_stream" in r
                else ""
            )
            lines.append(
                f"  {kernel:18} {r['gbps']:8.3f} GB/s  "
                f"({r['seconds'] * 1e3:8.2f} ms){frac}"
            )
    for backend, rows in doc.get("call_floor", {}).items():
        lines.append(f"[{backend}] per-call floor")
        for row, r in rows.items():
            gain = (
                f"  ({r['speedup_over_calls']:.1f}x over 8 calls)"
                if "speedup_over_calls" in r
                else ""
            )
            lines.append(f"  {row:18} {r['seconds'] * 1e6:8.1f} us{gain}")
    for backend, split in doc.get("fold_split", {}).items():
        lines.append(f"[{backend}] one dense k=2 fold by stage (us)")
        lines.append(
            f"  {'':8}" + "".join(f"{stage:>16}" for stage in FOLD_STAGES)
            + f"{'fold':>10}{'stages/fold':>13}"
        )
        for size, r in split.items():
            lines.append(
                f"  {size:8}"
                + "".join(f"{r[stage] * 1e6:16.1f}" for stage in FOLD_STAGES)
                + f"{r['fold'] * 1e6:10.1f}{r['stages_over_fold']:13.2f}"
            )
    unavailable = {
        k: v for k, v in doc.get("backend_status", {}).items() if v != "ok"
    }
    for name, err in unavailable.items():
        lines.append(f"[{name}] unavailable: {err}")
    return "\n".join(lines)


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
