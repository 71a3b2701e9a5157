"""BENCHMARK.json names exactly what the runner emits, within the
driver's limits."""

import json
import re

from e2e_bench import ROOT
from e2e_bench.cli import DEFAULT_SECONDS, driver_result
from e2e_bench.runner import unit_of
from e2e_bench.spec import END_TO_END, PER_LAYER, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_keys_and_command():
    doc = load()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["e2e_bench"]
    assert doc["command"] == ["python3", "-m", "e2e_bench"]
    assert doc["run_seconds"] == DEFAULT_SECONDS
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_match_the_spec():
    doc = load()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics_match_the_spec():
    doc = load()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")


def test_setup_has_the_largest_bound():
    bounds = {m.name: m.bound for m in END_TO_END}
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


def test_driver_result_has_exactly_the_contract_keys():
    values = {m.name: 1.5 for m in END_TO_END}
    out = json.loads(driver_result(True, 10, 0, values))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["metrics"]["setup_s"] == {"value": 1.5, "unit": unit_of("setup_s")}
