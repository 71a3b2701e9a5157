"""The repo benchmark's driver command, and the counts its tracer reports.

``BENCHMARK.json``'s command (``python3 -m e2e_bench --workload W``) is
what the PR driver runs, yet nothing in tier-1 executed it, so a refactor
could break it unnoticed.  This runs the smallest form of it — the smoke
mode of one workload, plain and traced — from the checkout root, and pins
the kernel invocation counts of one hz allreduce *as the benchmark's own
wrappers count them*: ``compression.cpr_calls_per_op`` and
``dpr_calls_per_op`` are only meaningful if the batch goes through
``FZLight.compress`` / ``decompress``, the two names the tracer wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def bench(*args):
    return subprocess.run(
        [sys.executable, "-m", "e2e_bench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def last_line(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(
    not (ROOT / "e2e_bench").is_dir(), reason="benchmark not in this checkout"
)
def test_driver_protocol_and_traced_kernel_counts():
    common = ("--smoke", "--workload", "sim-small", "--seed", "3")
    plain = last_line(bench(*common, "--trace", "0"))
    assert plain["correct"] is True and plain["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(plain["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = last_line(bench(*common, "--trace", "1"))
    assert list(traced["metrics"]) == [m["name"] for m in declared["per_layer"]]
    got = {k: v["value"] for k, v in traced["metrics"].items()}
    # 8 ranks: per rank 8 encodes (7 reduce-scatter sends of a quantised
    # partial + the allgather's send of the owned block, handed off
    # quantised; the quantise sweep is not a traced target), 7 ring folds,
    # and one DPR sweep that decodes the foreign blocks and dequantises
    # its own
    assert got["compression.cpr_calls_per_op"] == 64
    assert got["homomorphic.hpr_calls_per_op"] == 56
    assert got["compression.dpr_calls_per_op"] == 8
    assert got["core.layers_sum_frac"] >= 0.95
