"""The kernel perf harness: document shape, CLI, regression gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.kernels import (
    FOLD_STAGES,
    REDUCE_KS,
    compare_to_baseline,
    format_report,
    run_kernel_bench,
)

FLOOR_ROWS = (
    "cpr_4kb", "dpr_4kb", "hpr_4kb", "ring_fold_4kb",
    "cpr_2kb", "ring_fold_2kb",
    "cpr_256kb", "dpr_256kb", "hpr_256kb", "ring_fold_256kb",
    "cpr_8x2kb_calls", "cpr_8x2kb_sweep",
    "dpr_8x2kb_calls", "dpr_8x2kb_sweep",
)
EXPECTED_KERNELS = {"encode", "classify_encode", "decode", "decode_selected"} | {
    f"reduce_fused_k{k}" for k in REDUCE_KS
}


@pytest.fixture(scope="module")
def small_doc():
    return run_kernel_bench(mb=0.25, repeats=1)


class TestDocument:
    def test_every_backend_reports_every_kernel(self, small_doc):
        assert small_doc["backends"], "no backends measured"
        for kernels in small_doc["backends"].values():
            assert set(kernels) == EXPECTED_KERNELS
            for r in kernels.values():
                assert r["seconds"] > 0 and r["gbps"] > 0

    def test_status_covers_builtins(self, small_doc):
        assert {"numpy", "numba"} <= set(small_doc["backend_status"])

    def test_stream_baseline_and_fractions(self, small_doc):
        stream = small_doc["stream"]
        assert stream["gbps"] > 0 and stream["seconds"] > 0
        for kernels in small_doc["backends"].values():
            for r in kernels.values():
                assert r["frac_stream"] == pytest.approx(
                    r["gbps"] / stream["gbps"]
                )

    def test_call_floor_rows(self, small_doc):
        """4 KB single calls and 8 x 2 KB calls-vs-sweep, per backend."""
        assert set(small_doc["call_floor"]) == set(small_doc["backends"])
        for rows in small_doc["call_floor"].values():
            assert tuple(rows) == FLOOR_ROWS
            assert all(r["seconds"] > 0 for r in rows.values())
            for kernel in ("cpr", "dpr"):
                sweep = rows[f"{kernel}_8x2kb_sweep"]
                calls = rows[f"{kernel}_8x2kb_calls"]
                assert sweep["speedup_over_calls"] == pytest.approx(
                    calls["seconds"] / sweep["seconds"]
                )
                assert sweep["speedup_over_calls"] > 1.5  # gate asks 3x

    def test_fold_split_rows(self, small_doc):
        """One dense k = 2 fold per size, split into stages that add up."""
        assert set(small_doc["fold_split"]) == set(small_doc["backends"])
        for split in small_doc["fold_split"].values():
            assert tuple(split) == ("2kb", "4kb", "256kb")
            for rows in split.values():
                assert set(rows) == {"fold", "stages_over_fold", *FOLD_STAGES}
                assert all(rows[stage] > 0 for stage in FOLD_STAGES)
                # the stages are one staged run's; the fold is the best
                # unstaged one, so their ratio is the stopwatches' cost
                # plus this box's jitter (committed rows: within 10 %)
                staged = sum(rows[stage] for stage in FOLD_STAGES)
                assert rows["stages_over_fold"] == pytest.approx(
                    staged / rows["fold"]
                )
                assert 0.7 < rows["stages_over_fold"] < 1.6
            # the kernels, not the engine around them, are most of a fold
            big = split["256kb"]
            assert big["decode"] + big["classify_encode"] > 0.5 * big["fold"]

    def test_committed_fold_split_adds_up(self):
        committed = json.loads(
            (Path(__file__).resolve().parents[2] / "BENCH_kernels.json").read_text()
        )
        for rows in committed["fold_split"]["numpy"].values():
            assert 0.9 <= rows["stages_over_fold"] <= 1.1

    def test_json_serialisable(self, small_doc):
        restored = json.loads(json.dumps(small_doc))
        assert restored["bench"] == "kernels"

    def test_report_renders(self, small_doc):
        text = format_report(small_doc)
        assert "encode" in text and "GB/s" in text
        assert "fold by stage" in text and "classify_encode" in text


class TestCompare:
    def test_no_regression_against_self(self, small_doc):
        assert compare_to_baseline(small_doc, small_doc, tolerance=2.0) == []

    def test_detects_regression(self, small_doc):
        slowed = json.loads(json.dumps(small_doc))
        for kernels in slowed["backends"].values():
            for r in kernels.values():
                r["gbps"] /= 10.0
        failures = compare_to_baseline(slowed, small_doc, tolerance=2.0)
        assert failures and "slower" in failures[0]

    def test_detects_call_floor_regression(self, small_doc):
        slowed = json.loads(json.dumps(small_doc))
        slowed["call_floor"]["numpy"]["cpr_4kb"]["seconds"] *= 10.0
        failures = compare_to_baseline(slowed, small_doc, tolerance=2.0)
        assert len(failures) == 1 and "numpy/cpr_4kb" in failures[0]
        # the fold's floor is compared like the compressor's
        slowed["call_floor"]["numpy"]["hpr_4kb"]["seconds"] *= 10.0
        failures = compare_to_baseline(slowed, small_doc, tolerance=2.0)
        assert len(failures) == 2 and "numpy/hpr_4kb" in failures[1]
        assert "10.00x slower" in failures[1]
        # ... and so are the rows that take a fresh input every call
        slowed["call_floor"]["numpy"]["ring_fold_2kb"]["seconds"] *= 10.0
        failures = compare_to_baseline(slowed, small_doc, tolerance=2.0)
        assert len(failures) == 3 and "numpy/ring_fold_2kb" in failures[2]
        # a baseline from before the floor rows existed compares clean
        old = {k: v for k, v in small_doc.items() if k != "call_floor"}
        assert compare_to_baseline(slowed, old, tolerance=2.0) == []
        # ... and one from before the fresh-input rows gates the rest
        older = json.loads(json.dumps(small_doc))
        for row in ("cpr_2kb", "ring_fold_2kb"):
            del older["call_floor"]["numpy"][row]
        assert len(compare_to_baseline(slowed, older, tolerance=2.0)) == 2

    def test_fresh_input_rows_build_a_layout_every_call(self):
        """``cpr_2kb`` / ``ring_fold_2kb`` cycle through more inputs than
        the layout cache keeps, so no encode finds its layout built."""
        from repro.bench import kernels as kernels_module
        from repro.kernels import plan

        built = []
        original = plan.StreamLayout._stage

        def counting(layout):
            built.append(layout.n_blocks)
            return original(layout)

        plan.StreamLayout._stage = counting
        try:
            rows = kernels_module._bench_call_floor("numpy", repeats=1)
        finally:
            plan.StreamLayout._stage = original
        assert set(rows) == set(FLOOR_ROWS)
        # 19-block streams: the 2 KB encodes (the 4 KB probe's are 36)
        fresh = built.count(19)
        # setup stages each received stream once; then every timed call
        # of both rows (warm-ups included) builds its encode's layout
        turns = 3 + 1  # best_of_each warm-ups + repeats
        cycle = plan.LAYOUT_CACHE_ENTRIES + kernels_module._FRESH_CALLS
        assert fresh >= cycle + 2 * turns * kernels_module._FRESH_CALLS

    def test_new_backend_in_current_is_ignored(self, small_doc):
        baseline = json.loads(json.dumps(small_doc))
        current = json.loads(json.dumps(small_doc))
        current["backends"]["hypothetical"] = {
            "encode": {"seconds": 1.0, "gbps": 0.0001}
        }
        assert compare_to_baseline(current, baseline) == []


class TestRequire:
    def test_require_backend_ok(self):
        from repro.bench.kernels import require_backend

        require_backend("numpy")

    def test_require_unknown_backend_raises(self):
        from repro.bench.kernels import require_backend

        with pytest.raises(RuntimeError, match="unknown kernel backend"):
            require_backend("not-a-backend")

    def test_require_unavailable_backend_carries_probe_error(self):
        from repro.bench.kernels import require_backend
        from repro.kernels.dispatch import backend_status

        status = backend_status()
        missing = [n for n, s in status.items() if s != "ok"]
        if not missing:
            pytest.skip("every built-in backend is installed here")
        with pytest.raises(RuntimeError, match=missing[0]):
            require_backend(missing[0])

    def test_cli_require_missing_exits_nonzero(self, capsys):
        from repro.cli import main

        rc = main([
            "bench-kernels", "--mb", "0.25", "--repeats", "1",
            "--backend", "numpy", "--require", "not-a-backend",
        ])
        assert rc == 2
        assert "unknown kernel backend" in capsys.readouterr().err

    def test_cli_require_available_passes(self, capsys):
        from repro.cli import main

        rc = main([
            "bench-kernels", "--mb", "0.25", "--repeats", "1",
            "--backend", "numpy", "--require", "numpy",
        ])
        assert rc == 0
        capsys.readouterr()


class TestCLI:
    def test_bench_kernels_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "BENCH_kernels.json"
        rc = main([
            "bench-kernels", "--mb", "0.25", "--repeats", "1",
            "--backend", "numpy", "--json", str(out_json),
        ])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert set(doc["backends"]) == {"numpy"}
        assert "encode" in capsys.readouterr().out

    def test_compare_gate_passes_and_fails(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        rc = main([
            "bench-kernels", "--mb", "0.25", "--repeats", "1",
            "--backend", "numpy", "--json", str(baseline),
        ])
        assert rc == 0
        rc = main([
            "bench-kernels", "--mb", "0.25", "--repeats", "2",
            "--backend", "numpy", "--compare", str(baseline),
            "--tolerance", "25.0",
        ])
        assert rc == 0
        # an absurd tolerance below 1.0 must trip the gate on jitter alone
        doc = json.loads(baseline.read_text())
        for kernels in doc["backends"].values():
            for r in kernels.values():
                r["gbps"] *= 1e6
        baseline.write_text(json.dumps(doc))
        rc = main([
            "bench-kernels", "--mb", "0.25", "--repeats", "1",
            "--backend", "numpy", "--compare", str(baseline),
        ])
        assert rc == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_reduce_fused_throughput_scales_with_k(self):
        doc = run_kernel_bench(mb=0.5, repeats=1, backends=("numpy",))
        ks = sorted(REDUCE_KS)
        gbps = [
            doc["backends"]["numpy"][f"reduce_fused_k{k}"]["gbps"] for k in ks
        ]
        # fused reduction amortises the single re-encode over k operands,
        # so per-processed-byte throughput must not collapse at higher k
        assert gbps[-1] > 0.3 * gbps[0]


class TestKernelGateScript:
    """``benchmarks/kernel_gate.py`` (the CI gate).  The verdicts are
    checked on planted documents — the committed ``BENCH_kernels.json`` and
    copies with one row moved — so no wall-clock ratio decides a test; one
    subprocess run checks that the script measures and prints."""

    REPO = Path(__file__).resolve().parents[2]

    def _run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(self.REPO / "src"))
        return subprocess.run(
            [
                sys.executable,
                str(self.REPO / "benchmarks" / "kernel_gate.py"),
                "--mb", "0.25", "--repeats", "1", *args,
            ],
            capture_output=True,
            text=True,
            env=env,
        )

    def _gate(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "kernel_gate", self.REPO / "benchmarks" / "kernel_gate.py"
        )
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        return gate

    def _committed(self):
        return json.loads((self.REPO / "BENCH_kernels.json").read_text())

    def _verdict(self, doc, monkeypatch, capsys, *args):
        """Run the gate's ``main`` on ``doc`` instead of a measurement."""
        gate = self._gate()
        monkeypatch.setattr(gate, "run_kernel_bench", lambda **_: doc)
        code = gate.main(["--mb", "0.25", "--repeats", "1", *args])
        return code, capsys.readouterr().out

    def test_script_measures_and_prints_a_verdict(self):
        proc = self._run()
        assert proc.returncode in (0, 1), proc.stdout + proc.stderr
        assert "STREAM" in proc.stdout
        assert (
            "kernel gate ok" in proc.stdout
            or "KERNEL GATE FAILED" in proc.stdout
        )

    def test_reports_roofline_and_passes_without_floors(
        self, monkeypatch, capsys
    ):
        code, out = self._verdict(self._committed(), monkeypatch, capsys)
        assert code == 0, out
        assert "STREAM" in out and "kernel gate ok" in out

    def test_unmet_roofline_floor_fails(self, monkeypatch, capsys):
        code, out = self._verdict(
            self._committed(), monkeypatch, capsys,
            "--min-frac", "numpy:encode:99.0",
        )
        assert code == 1
        assert "KERNEL GATE FAILED" in out

    def test_unmet_speedup_floor_fails(self, monkeypatch, capsys):
        code, out = self._verdict(
            self._committed(), monkeypatch, capsys,
            "--min-speedup", "numpy:numpy:encode:99.0",
        )
        assert code == 1
        assert "floor 99.00x" in out

    def test_sweep_amortisation_is_gated(self, monkeypatch, capsys):
        """One 8 x 2 KB sweep must beat eight calls 3x on the reference
        backend; the floor is a constant of the gate, not a flag."""
        code, out = self._verdict(self._committed(), monkeypatch, capsys)
        assert code == 0, out
        assert "x over 8 calls" in out
        assert "sweep floor 3.0x" in out
        doc = self._committed()
        doc["call_floor"]["numpy"]["cpr_8x2kb_sweep"]["speedup_over_calls"] = 2.5
        code, out = self._verdict(doc, monkeypatch, capsys)
        assert code == 1
        assert "numpy/cpr_8x2kb_sweep: 2.50x over eight calls, floor 3.00x" in out

    def test_fold_against_doc_step_is_gated(self, monkeypatch, capsys):
        """Table 4's condition at the 4 KB floor: HPR <= 2 DPR + CPR on the
        reference backend, reported in the gate's table."""
        code, out = self._verdict(self._committed(), monkeypatch, capsys)
        assert code == 0, out
        assert "fold vs DOC step at 4 KB" in out
        assert "fold/DOC ceiling 1.00" in out
        # and §III-C's condition at the ring-block size: HPR <= DPR + CPR
        assert "fold vs DOC step at 256 KB" in out
        assert "ring fold/DOC ceiling 1.00" in out

    def test_ring_fold_slower_than_doc_ring_step_fails(self):
        """The 256 KB gate's arithmetic: one DPR + one CPR per ring round."""
        gate = self._gate()
        floor = {
            "cpr_256kb": {"seconds": 6e-4},
            "dpr_256kb": {"seconds": 5e-4},
            "hpr_256kb": {"seconds": 8.8e-4},
        }
        assert gate.ring_fold_over_doc(floor) == pytest.approx(0.8)
        assert gate.ring_fold_over_doc(floor) <= gate.RING_FOLD_OVER_DOC_CEILING
        floor["hpr_256kb"]["seconds"] = 1.3e-3
        assert gate.ring_fold_over_doc(floor) > gate.RING_FOLD_OVER_DOC_CEILING

    def test_ring_fold_not_cheaper_than_hpr_fails(self):
        """Gate 7's arithmetic: the executed ring round against the
        paper's two-stream HPR of the same run."""
        gate = self._gate()
        floor = {
            "hpr_256kb": {"seconds": 1e-3},
            "ring_fold_256kb": {"seconds": 6e-4},
        }
        assert gate.ring_fold_over_hpr(floor) == pytest.approx(0.6)
        assert gate.ring_fold_over_hpr(floor) <= gate.RING_FOLD_OVER_HPR_CEILING
        floor["ring_fold_256kb"]["seconds"] = 9.5e-4
        assert gate.ring_fold_over_hpr(floor) > gate.RING_FOLD_OVER_HPR_CEILING

    def test_ring_fold_gate_trips_in_the_script(self, monkeypatch, capsys):
        """The script fails, naming the row, when the ring fold is no
        cheaper than HPR in the document it measured."""
        doc = self._committed()
        floor = doc["call_floor"]["numpy"]
        floor["ring_fold_256kb"]["seconds"] = 0.95 * floor["hpr_256kb"]["seconds"]
        code, out = self._verdict(doc, monkeypatch, capsys)
        assert code == 1
        assert "ring fold vs HPR at 256 KB" in out
        assert "numpy/ring_fold_256kb: 0.95x the two-stream HPR" in out

    def test_committed_ring_fold_passes_its_gate(self):
        gate = self._gate()
        floor = self._committed()["call_floor"]["numpy"]
        assert gate.ring_fold_over_doc(floor) <= gate.RING_FOLD_OVER_DOC_CEILING
        assert gate.ring_fold_over_hpr(floor) <= gate.RING_FOLD_OVER_HPR_CEILING

    def test_fold_slower_than_doc_step_fails(self):
        """The gate's arithmetic, on a document where the fold loses."""
        gate = self._gate()
        floor = {
            "cpr_4kb": {"seconds": 1e-4},
            "dpr_4kb": {"seconds": 1e-4},
            "hpr_4kb": {"seconds": 2.9e-4},
        }
        assert gate.fold_over_doc(floor) == pytest.approx(2.9 / 3)
        floor["hpr_4kb"]["seconds"] = 3.3e-4
        assert gate.fold_over_doc(floor) > gate.FOLD_OVER_DOC_CEILING

    def test_missing_required_backend_fails(self):
        proc = self._run("--require", "not-a-backend")
        assert proc.returncode == 1
        assert "unknown kernel backend" in proc.stdout


def test_reduce_fused_matches_pairwise_fold():
    """The harness fields drive the same engine the collectives use."""
    from repro.bench.kernels import _make_fields
    from repro.homomorphic.hzdynamic import HZDynamic

    fields = _make_fields(4, 8192)
    engine = HZDynamic(collect_stats=False)
    fused = engine.reduce_fused(fields)
    fold = engine.reduce(fields, order="sequential")
    np.testing.assert_array_equal(fused.payload, fold.payload)
    np.testing.assert_array_equal(fused.code_lengths, fold.code_lengths)
