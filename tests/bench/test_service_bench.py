"""``benchmarks/bench_service.py`` (the CI service gate), on planted rows.

The four rows are replaced by fakes that return fixed times, so the
checks are about the harness, not the box: rows take turns round by
round with the order rotated, and the gate reads the per-round ratios.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: planted seconds per row: batched clears 2x per-request, lone matches
#: unbatched
HEALTHY = {
    "per_request": 0.008,
    "service_unbatched": 0.006,
    "batched": 0.002,
    "service_lone": 0.006,
}


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench_service", REPO / "benchmarks" / "bench_service.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.fixture
def planted(monkeypatch):
    """The bench module with fake rows; ``calls`` records each row run."""
    bench = _bench()
    calls = []
    times = dict(HEALTHY)
    monkeypatch.setattr(bench, "_make_batch", lambda *args: [])

    def facade(batch):
        calls.append("per_request")
        return times["per_request"], 100

    def serve(batch, *, coalesce, concurrent):
        row = {
            (False, False): "service_unbatched",
            (True, True): "batched",
            (True, False): "service_lone",
        }[coalesce, concurrent]
        calls.append(row)
        return times[row], 80

    monkeypatch.setattr(bench, "_facade_once", facade)
    monkeypatch.setattr(bench, "_serve_once", serve)
    return bench, calls, times


def test_rows_take_turns_in_rotated_rounds(planted):
    bench, calls, _ = planted
    doc = bench.measure(repeats=4)
    rounds = calls[2:]  # after the two warm-up calls
    rows = list(HEALTHY)
    assert len(rounds) == 4 * len(rows)
    for turn in range(4):
        one = rounds[turn * len(rows) : (turn + 1) * len(rows)]
        assert one == rows[turn:] + rows[:turn]
    assert doc["rounds"] == 4
    assert doc["batched_s"] == HEALTHY["batched"]
    assert doc["speedup"] == pytest.approx(4.0)
    assert doc["lone_over_unbatched"] == pytest.approx(1.0)


def test_healthy_rows_pass_the_gate(planted, capsys):
    bench = planted[0]
    assert bench.main(["--check", "--min-speedup", "2.0", "--repeats", "3"]) == 0
    assert "service gate ok" in capsys.readouterr().out


def test_a_three_times_slower_batched_row_fails_the_gate(planted, capsys):
    bench, _, times = planted
    times["batched"] *= 3
    assert bench.main(["--check", "--min-speedup", "2.0", "--repeats", "3"]) == 1
    assert "SERVICE GATE FAILED" in capsys.readouterr().out


def test_a_lone_row_that_waits_out_the_window_fails_the_gate(planted, capsys):
    bench, _, times = planted
    times["service_lone"] = times["service_unbatched"] + 0.010
    assert bench.main(["--check", "--min-speedup", "2.0", "--repeats", "3"]) == 1
    assert "lone sessions take" in capsys.readouterr().out
