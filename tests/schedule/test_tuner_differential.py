"""Differential harness: the committed tuning table, executed.

For every ``BENCH_tuner.json`` entry at executable scale (n ≤ 16), run
the **tuned pick** and the **best static family** (the entry's
``flat_pick`` — what a placement-free caller would have hand-picked)
functionally on :class:`SimCluster`, on data matching the entry's
roughness class, and assert:

* **results agree** — non-pipelined homomorphic candidates are
  bit-identical to the flat fused hz ring (one absolute-eb quantisation
  per element + exact integer folds ⇒ the schedule changes, the answer
  doesn't); pipelined hz candidates honour the N·eb error contract;
  plain candidates match the exact float64 reference to float32
  associativity;
* **modelled-cost ordering is consistent with the committed document**
  — the pick's cost is the minimum of the per-candidate map, the flat
  pick is the flat argmin, and re-running :func:`tune_point` today
  reproduces the committed entries exactly (cost-model drift cannot
  silently invalidate the table).
"""

import json
import pathlib

import numpy as np
import pytest

from repro.bench.tuner import FABRICS, RANKS_PER_NODE
from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime import NodeMap, SimCluster
from repro.schedule.tuner import (
    Candidate,
    TuningKey,
    candidate_family,
    classify_roughness,
    tune_point,
)

BASELINE = (
    pathlib.Path(__file__).resolve().parents[2] / "BENCH_tuner.json"
)
EXEC_MAX_RANKS = 16
N_ELEMENTS = 4096
EB = 1e-3
CONFIG = CollectiveConfig(error_bound=EB)


def _entries() -> list[dict]:
    points = json.loads(BASELINE.read_text())["points"]
    entries = [p for p in points if p["n_ranks"] <= EXEC_MAX_RANKS]
    assert entries, "no executable-scale entries committed"
    return entries


def _data(n: int, roughness: str) -> list[np.ndarray]:
    """Per-rank data that *actually classifies* as the entry's roughness
    class (asserted below, so the generator can't drift apart from the
    classifier)."""
    rng = np.random.default_rng(0xD1FF)
    if roughness == "smooth":
        data = [
            np.sin(np.linspace(0, 30, N_ELEMENTS) + r).astype(np.float32)
            for r in range(n)
        ]
    else:
        data = [
            rng.normal(0, 1.0, N_ELEMENTS).astype(np.float32)
            for _ in range(n)
        ]
    for a in data:
        assert classify_roughness(a, EB) == roughness
    return data


def _run(slug: str, entry: dict, data: list[np.ndarray]):
    cand = Candidate.parse(slug)
    cluster = SimCluster(
        entry["n_ranks"], network=FABRICS[entry["fabric"]]
    )
    nodemap = (
        NodeMap.regular(entry["n_ranks"], cand.ranks_per_node)
        if cand.hierarchical
        else None
    )
    name, params = candidate_family(cand, "allreduce", nodemap)
    result = run(FAMILIES[name], cluster, data, CONFIG, **params)
    assert not result.degraded
    return result


def _scenarios() -> list[tuple[str, dict]]:
    """One scenario per distinct (pick, flat_pick, roughness, n) combo —
    entries differing only in size/fabric execute identically at test
    scale, so dedup keeps the sweep fast without losing coverage."""
    seen, out = set(), []
    for p in _entries():
        sig = (p["pick"], p["flat_pick"], p["roughness"], p["n_ranks"])
        if sig in seen:
            continue
        seen.add(sig)
        out.append((f"{p['key']}", p))
    return out


@pytest.mark.parametrize(
    "entry", [p for _, p in _scenarios()], ids=[k for k, _ in _scenarios()]
)
def test_tuned_pick_agrees_with_best_static_family(entry):
    n = entry["n_ranks"]
    data = _data(n, entry["roughness"])
    exact = np.sum(np.stack(data), axis=0, dtype=np.float64).astype(np.float32)

    tuned = _run(entry["pick"], entry, data)
    static = _run(entry["flat_pick"], entry, data)

    # the hz reference: the flat fused ring on the same cluster geometry
    hz_ref = run(
        FAMILIES["hzccl_allreduce"],
        SimCluster(n, network=FABRICS[entry["fabric"]]), data, CONFIG,
    )
    assert not hz_ref.degraded
    plain_ref = run(
        FAMILIES["mpi_allreduce"],
        SimCluster(n, network=FABRICS[entry["fabric"]]), data,
    )

    bound = (2 * n + 1) * EB
    for result, slug in ((tuned, entry["pick"]), (static, entry["flat_pick"])):
        cand = Candidate.parse(slug)
        for rank, out in enumerate(result.outputs):
            # every candidate respects the end-to-end error contract
            np.testing.assert_allclose(out, exact, atol=bound)
            if cand.codec == "hz" and cand.family != "pipelined":
                # non-pipelined hz: bit-identical to the fused hz ring
                # (same per-element quantisation, exact integer folds)
                assert np.array_equal(out, hz_ref.outputs[rank]), (
                    f"{slug} rank {rank}: hz output not bit-identical"
                )
            elif cand.codec == "plain":
                np.testing.assert_allclose(
                    out, plain_ref.outputs[rank], atol=1e-4
                )

    # both candidates agree with each other within the lossy bound
    for a, b in zip(tuned.outputs, static.outputs):
        np.testing.assert_allclose(a, b, atol=2 * bound)


def test_modelled_cost_ordering_matches_committed_document():
    """pick ≤ every static cost; flat_pick = flat argmin; and today's
    cost model reproduces the committed entries exactly."""
    for p in _entries():
        costs = p["static_costs"]
        assert p["pick_cost_s"] == min(costs.values())
        assert p["pick_cost_s"] <= p["flat_cost_s"]
        flat = {
            s: c for s, c in costs.items()
            if not Candidate.parse(s).hierarchical
        }
        assert p["flat_cost_s"] == min(flat.values())

        key = TuningKey.parse(p["key"])
        nodemap = NodeMap.regular(
            key.n_ranks, min(RANKS_PER_NODE, key.n_ranks)
        )
        _, entry, recomputed = tune_point(
            key.n_ranks,
            p["size_bytes"],
            FABRICS[key.fabric],
            key.roughness,
            PAPER_BROADWELL,
            nodemap,
        )
        assert entry.pick.slug() == p["pick"]
        assert entry.cost_s == p["pick_cost_s"]
        assert recomputed == costs
