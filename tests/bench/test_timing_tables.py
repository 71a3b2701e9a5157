"""Tests for timing helpers and table rendering."""

import pytest

from repro.bench.tables import format_table, print_table
from repro.bench.timing import best_of, best_of_each, throughput_gbps


class TestBestOf:
    def test_counts_calls(self):
        calls = []
        best_of(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5

    def test_returns_positive_time(self):
        res = best_of(lambda: sum(range(1000)), repeats=2)
        assert res.seconds > 0
        assert res.repeats == 2

    def test_throughput(self):
        res = best_of(lambda: None, repeats=1, warmup=0)
        assert res.throughput_Bps(100) == pytest.approx(100 / res.seconds)

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, repeats=0)


class TestBestOfEach:
    def test_cases_take_turns(self):
        calls = []
        best = best_of_each(
            {"a": lambda: calls.append("a"), "b": lambda: calls.append("b")},
            repeats=2, warmup=1,
        )
        assert calls == ["a", "b"] * 3
        assert set(best) == {"a", "b"}
        assert all(0 <= s < 1 for s in best.values())

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            best_of_each({"a": lambda: None}, repeats=0)


class TestThroughputGbps:
    def test_value(self):
        assert throughput_gbps(2 * 10**9, 2.0) == pytest.approx(1.0)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            throughput_gbps(100, 0.0)


class TestFormatTable:
    def test_headers_and_rows(self):
        out = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="Table I")
        assert out.splitlines()[0] == "Table I"

    def test_float_formatting(self):
        out = format_table(["v"], [[0.123456], [1.2e-9], [12345.0]])
        assert "0.123" in out
        assert "1.200e-09" in out
        assert "1.234e+04" in out or "12345" in out

    def test_alignment(self):
        out = format_table(["col", "c2"], [["x", 1], ["longer", 2]])
        lines = out.splitlines()
        assert len(lines[1]) >= len("longer") + len("c2")

    def test_print_table_smoke(self, capsys):
        print_table(["h"], [[1]])
        captured = capsys.readouterr()
        assert "h" in captured.out
