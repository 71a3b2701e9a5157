"""The repo benchmark: wall-clock collectives on three data planes.

Six workloads drive the public API the way its users do — the
``HZCCL`` facade on the simulated plane, ``MPExecutor`` on real
processes, ``AggregationService`` sessions — time every call with
``time.perf_counter``, verify every output against a float64
reference, and report the end-to-end metrics of ``BENCHMARK.json``.
A second, traced pass wraps each layer's public entry points from
here (nothing inside ``src/repro`` changes) and yields the per-layer
metrics.  See ``e2e_bench/README.md``.
"""

from pathlib import Path

#: the checkout root: ``e2e_bench/`` sits next to ``src/``
ROOT = Path(__file__).resolve().parent.parent
