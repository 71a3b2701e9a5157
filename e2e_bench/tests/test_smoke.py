"""The command line end to end: smoke run, driver protocol, compare."""

import copy
import json
import subprocess
import sys
import time

import pytest

from e2e_bench import ROOT
from e2e_bench.compare import compare_docs
from e2e_bench.spec import END_TO_END, NOT_APPLICABLE, PER_LAYER, WORKLOADS


def bench(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "e2e_bench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    t0 = time.monotonic()
    proc = bench("--smoke", "--out", str(out))
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60, f"smoke run took {elapsed:.0f} s"
    with open(out) as fh:
        return json.load(fh)


def test_smoke_runs_every_workload_with_every_check_on(smoke_doc):
    assert list(smoke_doc["workloads"]) == [w.name for w in WORKLOADS]
    for name, res in smoke_doc["workloads"].items():
        assert res["correct"] and res["failed"] == 0, (name, res["failures"])
        # 2 cycles of hz -> doc -> plain, every op verified
        assert res["n_samples"]["doc"] == res["n_samples"]["plain"] == 2
        assert res["attempted"] == sum(res["n_samples"].values())
        values = res["end_to_end"]
        assert set(values) == {m.name for m in END_TO_END}
        # the percentile rule: 2 samples cannot carry a p90
        assert values["hz_op_ms_p90"] is None
        assert values["ok_frac"] == 1.0
        assert all(v > 0 for k, v in values.items() if k != "hz_op_ms_p90")
    assert smoke_doc["workloads"]["service-burst"]["n_samples"]["hz"] == 16
    assert smoke_doc["meta"]["backend"]


def test_compare_accepts_a_rerun_and_flags_a_regression(smoke_doc):
    lines, n_worse = compare_docs(smoke_doc, smoke_doc)
    assert n_worse == 0
    slower = copy.deepcopy(smoke_doc)
    e2e = slower["workloads"]["sim-small"]["end_to_end"]
    e2e["hz_op_ms_p50"] *= 1.5
    e2e["hz_goodput_MBps"] *= 2  # higher is better: not a regression
    e2e["hz_wire_ratio"] *= 0.999  # exact: any loss is one
    e2e["ok_frac"] = 0.98  # 2 % of ops failed against a bound of 1 %
    lines, n_worse = compare_docs(smoke_doc, slower)
    assert n_worse == 3
    row = next(x for x in lines if "sim-small" in x and "hz_op_ms_p50" in x)
    assert "+50.00%" in row and row.endswith("worse")
    row = next(x for x in lines if "sim-small" in x and "hz_goodput" in x)
    assert row.endswith("better")


def test_compare_command_exit_codes(smoke_doc, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    worse = copy.deepcopy(smoke_doc)
    worse["workloads"]["mp-ring"]["end_to_end"]["peak_rss_MB"] *= 2
    a.write_text(json.dumps(smoke_doc))
    b.write_text(json.dumps(worse))
    assert bench("compare", str(a), str(a)).returncode == 0
    proc = bench("compare", str(a), str(b))
    assert proc.returncode == 1 and "1 worse" in proc.stdout


def test_driver_protocol_plain_and_traced():
    common = ("--smoke", "--workload", "sim-small", "--seed", "3")
    plain = bench(*common, "--trace", "0")
    assert plain.returncode == 0, plain.stderr[-2000:]
    out = json.loads(plain.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert list(out["metrics"]) == [m.name for m in END_TO_END]
    for m in END_TO_END:
        assert out["metrics"][m.name]["unit"] == m.unit
        assert out["metrics"][m.name]["value"] > 0

    traced = bench(*common, "--trace", "1")
    assert traced.returncode == 0, traced.stderr[-2000:]
    out = json.loads(traced.stdout.splitlines()[-1])
    assert list(out["metrics"]) == [m.name for m in PER_LAYER]
    got = {k: v["value"] for k, v in out["metrics"].items()}
    # layers that run on the simulated plane report; the others do not
    assert got["compression.cpr_calls_per_op"] == 64
    assert got["homomorphic.hpr_calls_per_op"] == 56
    assert 0.95 <= got["core.layers_sum_frac"] <= 1.05
    assert got["runtime.mp.hop_us"] == NOT_APPLICABLE
    assert got["service.batch_mean"] == NOT_APPLICABLE
    spans = json.loads(
        (ROOT / "e2e_bench_out" / "sim-small.seed3.spans.json").read_text()
    )["spans"]
    roots = [s for s in spans if not s["parent"]]
    assert {s["name"] for s in roots} == {"facade.allreduce"}
    assert all(s["op"] in {r["id"] for r in roots} for s in spans)
