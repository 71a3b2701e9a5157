"""The multi-process calibration model: its fit and its committed document."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.mp import DEFAULT_ERROR_CEILING, check_document
from repro.schedule.cost import CalibrationSample, fit_alpha_beta

BENCH_MP = Path(__file__).resolve().parents[2] / "BENCH_mp.json"


def _sample(hops, crit_bytes, op=0.0, alpha=0.0, beta=0.0, compute=0.0):
    comm = op + alpha * hops + beta * crit_bytes
    return CalibrationSample("f", hops, crit_bytes, compute + comm, compute)


def test_fit_recovers_the_per_op_constant_alpha_and_beta():
    samples = [
        _sample(h, b, op=3e-4, alpha=1e-4, beta=1e-9, compute=1e-3)
        for h in (1, 2, 7)
        for b in (1e3, 1e6)
    ]
    fit = fit_alpha_beta(samples)
    assert fit.op_s == pytest.approx(3e-4)
    assert fit.alpha_s == pytest.approx(1e-4)
    assert fit.beta_s_per_byte == pytest.approx(1e-9)
    assert fit.max_rel_err() < 1e-9


def test_a_run_that_costs_the_same_at_one_and_two_hops_is_a_constant():
    # the 2-rank shape that broke the α-only fit: extra rounds are cheap,
    # the run's fixed cost is not
    samples = [
        _sample(h, b, op=4e-4, alpha=1e-6)
        for h, b in ((1, 2048), (2, 4096), (1, 131072), (2, 262144))
    ]
    fit = fit_alpha_beta(samples)
    assert fit.op_s == pytest.approx(4e-4)
    assert fit.max_rel_err() < 1e-6


def test_the_fit_minimises_relative_error():
    # one slow run must not set the coefficients for the fast ones
    fast = [_sample(h, 1e3, op=5e-4, alpha=1e-5) for h in (1, 2)]
    slow = CalibrationSample("slow", 1, 1e3, 0.05, 0.0)
    fit = fit_alpha_beta([*fast, *fast, *fast, slow])
    errors = fit.family_errors()
    assert errors["f"] < 1.5


def test_a_single_sample_is_all_alpha():
    fit = fit_alpha_beta([CalibrationSample("f", 3, 1e5, 0.01)])
    assert (fit.op_s, fit.beta_s_per_byte) == (0.0, 0.0)
    assert fit.alpha_s == pytest.approx(0.01 / 3)


def test_committed_document_passes_its_own_gate():
    doc = json.loads(BENCH_MP.read_text())
    assert check_document(doc, ceiling=DEFAULT_ERROR_CEILING) == []


def test_critical_compute_is_the_sum_of_each_rounds_slowest_rank():
    """Two ranks whose slow rounds alternate: every round waits for its
    slow rank, so the critical path is Σ max (4 ms), not max Σ (2 ms)."""
    from repro.runtime.mp_cluster import RankResult, critical_compute

    slow, fast = 1e-3, 0.0
    results = [
        RankResult(rank=0, state={}, round_compute=(slow, fast, slow, fast)),
        RankResult(rank=1, state={}, round_compute=(fast, slow, fast, slow)),
    ]
    rounds = [res.round_compute for res in results]
    assert critical_compute(rounds) == pytest.approx(4e-3)
    assert max(sum(r) for r in rounds) == pytest.approx(2e-3)
    # a rank that aborted early contributes nothing to the rounds it missed
    assert critical_compute([(slow,), (fast, slow)]) == pytest.approx(2e-3)


def test_a_document_row_is_fitted_on_its_critical_compute():
    from repro.bench.mp import samples_from_document

    row = {"family": "f", "hops": 1, "crit_bytes": 1.0, "measured_s": 5e-3,
           "compute_s": 4e-3, "critical_compute_s": 3e-3}
    (sample,) = samples_from_document({"rows": [row]})
    assert sample.compute_s == 3e-3
    del row["critical_compute_s"]  # a document written before the split
    (sample,) = samples_from_document({"rows": [row]})
    assert sample.compute_s == 4e-3
