"""Tests for the request → plan → execute pipeline (DESIGN.md §16)."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import HZCCL, CollectiveConfig
from repro.collectives import CollectiveResult, hzccl_allreduce
from repro.core.pipeline import (
    PLAN_CACHE,
    REQUEST_OPS,
    CollectiveRequest,
    PayloadSpec,
    Plan,
    PlanCache,
    execute,
    plan,
)
from repro.obs.metrics import METRICS, metrics_enabled
from repro.runtime import SimCluster


@pytest.fixture()
def data4():
    rng = np.random.default_rng(11)
    return [
        np.cumsum(rng.normal(0, 0.02, 613)).astype(np.float32)
        for _ in range(4)
    ]


class TestRequestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op must be one of"):
            CollectiveRequest(op="allgather", n_ranks=2)

    def test_bad_rank_and_session_counts(self):
        with pytest.raises(ValueError, match="n_ranks must be >= 1"):
            CollectiveRequest(op="reduce", n_ranks=0)
        with pytest.raises(ValueError, match="sessions must be >= 1"):
            CollectiveRequest(op="batched-reduce", n_ranks=2, sessions=0)

    def test_tune_limited_to_tunable_ops(self):
        with pytest.raises(ValueError, match="not tunable"):
            CollectiveRequest(op="reduce_scatter", n_ranks=2, tune=True)

    def test_requests_are_hashable_and_frozen(self):
        r = CollectiveRequest(op="reduce", n_ranks=4)
        assert hash(r) == hash(CollectiveRequest(op="reduce", n_ranks=4))
        with pytest.raises(AttributeError):
            r.n_ranks = 8

    def test_payload_spec_of_array(self):
        spec = PayloadSpec.of(np.zeros((2, 32), dtype=np.float32))
        assert spec == PayloadSpec(dtype="float32", elements=64)
        assert spec.nbytes == 256


class TestStaticDispatch:
    def test_family_per_kernel(self):
        cases = {
            ("allreduce", "hzccl"): "hzccl",
            ("allreduce", "ccoll"): "ccoll",
            ("allreduce", "mpi"): "mpi",
            ("reduce", "hzccl-direct"): "hzccl-direct",
            ("bcast", "mpi"): "mpi",
            ("reduce_scatter", "ccoll"): "ccoll",
        }
        for (op, kernel), family in cases.items():
            p = plan(
                CollectiveRequest(op=op, n_ranks=4, kernel=kernel),
                cache=None,
            )
            assert p.family == family and p.spec is not None
            assert p.source == "static" and p.pick is None

    def test_unknown_kernels_keep_exact_messages(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            plan(CollectiveRequest(op="allreduce", n_ranks=2, kernel="nccl"),
                 cache=None)
        with pytest.raises(
            ValueError, match="'hzccl', 'hzccl-direct' or 'mpi'"
        ):
            plan(CollectiveRequest(op="reduce", n_ranks=2, kernel="x"),
                 cache=None)
        with pytest.raises(ValueError, match="'hzccl' or 'mpi'"):
            plan(CollectiveRequest(op="bcast", n_ranks=2, kernel="x"),
                 cache=None)

    def test_plan_then_execute_matches_direct_family_call(self, data4):
        config = CollectiveConfig()
        p = plan(CollectiveRequest(op="allreduce", n_ranks=4), config,
                 cache=None)
        via_pipeline = execute(p, data4, config=config)
        direct = hzccl_allreduce(
            SimCluster(n_ranks=4, network=config.network), data4, config
        )
        assert via_pipeline.bytes_on_wire == direct.bytes_on_wire
        for a, b in zip(via_pipeline.outputs, direct.outputs):
            assert np.array_equal(a, b)

    def test_tune_without_roughness_raises(self):
        with pytest.raises(ValueError, match="classified roughness"):
            plan(
                CollectiveRequest(op="allreduce", n_ranks=4, tune=True),
                cache=None,
            )


class TestBatchedPlan:
    def test_batched_plan_carries_schedule_and_cost(self):
        p = plan(
            CollectiveRequest(
                op="batched-reduce",
                n_ranks=4,
                payload=PayloadSpec(elements=1024),
                sessions=3,
            ),
            cache=None,
        )
        assert p.family == "batched-fused"
        assert p.spec is not None
        assert p.cost_s is not None and p.cost_s > 0

    def test_batched_execute_matches_independent_reduces(self, data4):
        lib = HZCCL()
        batch = [data4, [a * 2 for a in data4]]
        result = lib.batched_reduce(batch)
        assert len(result.outputs) == 2  # indexed by session
        for s, session in enumerate(batch):
            independent = lib.reduce(session).outputs[0]
            assert np.array_equal(result.outputs[s], independent)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one session"):
            HZCCL().batched_reduce([])


class TestPlanCache:
    def test_repeated_plans_hit(self):
        cache = PlanCache()
        request = CollectiveRequest(op="reduce", n_ranks=4)
        first = plan(request, cache=cache)
        second = plan(request, cache=cache)
        assert second is first
        assert cache.stats() == {
            "size": 1, "hits": 1, "misses": 1, "hit_rate": 0.5,
        }

    def test_config_knobs_split_entries(self):
        cache = PlanCache()
        request = CollectiveRequest(op="reduce", n_ranks=4)
        plan(request, CollectiveConfig(), cache=cache)
        plan(request, CollectiveConfig(error_bound=1e-3), cache=cache)
        assert len(cache) == 2 and cache.hits == 0

    def test_execution_only_config_shares_the_entry(self):
        # fault plans / retry / threading are execute-time concerns:
        # they must not fragment the cache (DESIGN.md §16 keying table)
        cache = PlanCache()
        request = CollectiveRequest(op="reduce", n_ranks=4)
        plan(request, CollectiveConfig(), cache=cache)
        plan(request, CollectiveConfig(multithread=True), cache=cache)
        assert cache.hits == 1

    def test_explicit_table_bypasses_cache(self):
        from repro.schedule.tuner import TuningTable

        cache = PlanCache()
        request = CollectiveRequest(
            op="reduce",
            n_ranks=4,
            payload=PayloadSpec(elements=1024),
            tune=True,
            roughness="smooth",
        )
        plan(request, table=TuningTable(), cache=cache)
        assert len(cache) == 0 and cache.misses == 0

    def test_lru_evicts_oldest(self):
        cache = PlanCache(maxsize=2)
        for n in (2, 3, 4):
            plan(CollectiveRequest(op="reduce", n_ranks=n), cache=cache)
        assert len(cache) == 2
        plan(CollectiveRequest(op="reduce", n_ranks=2), cache=cache)
        assert cache.hits == 0  # n_ranks=2 was evicted

    def test_cache_counters_reach_metrics(self):
        cache = PlanCache()
        request = CollectiveRequest(op="bcast", n_ranks=4)
        with metrics_enabled():
            plan(request, cache=cache)
            plan(request, cache=cache)
            assert METRICS.counter("plan.cache.miss") == 1
            assert METRICS.counter("plan.cache.hit") == 1

    def test_facade_populates_the_process_cache(self, data4):
        PLAN_CACHE.clear()
        lib = HZCCL()
        lib.reduce(data4)
        lib.reduce(data4)
        assert PLAN_CACHE.hits >= 1


class TestExecuteOneShape:
    def test_no_state_parameter_and_one_result_type(self, data4):
        # the schedule-backed ``execute(plan, state=...)`` shape is gone:
        # (schedule, spec, state) callers use the executors directly
        params = inspect.signature(execute).parameters
        assert not {"state", "fault_plan", "retry"} & set(params)
        assert not hasattr(Plan, "from_schedule")
        payloads = {
            "bcast": data4[0],
            "batched-reduce": [data4, [a * 2 for a in data4]],
        }
        for op in REQUEST_OPS:
            request = CollectiveRequest(
                op=op, n_ranks=4, sessions=2 if op == "batched-reduce" else 1
            )
            result = execute(
                plan(request, cache=None), payloads.get(op, data4)
            )
            assert isinstance(result, CollectiveResult), op


class TestTunedPlanMetadata:
    def test_tuned_plan_records_pick_and_source(self):
        request = CollectiveRequest(
            op="reduce",
            n_ranks=4,
            payload=PayloadSpec(elements=4096),
            tune=True,
            roughness="smooth",
        )
        p = plan(request, cache=None)
        assert p.pick is not None
        assert p.source in ("table", "memo", "enumerated")
        assert p.family == p.pick.slug()
        assert p.cost_s is not None
