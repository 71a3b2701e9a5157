"""Tests for the execution-trace subsystem."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import FAMILIES, run
from repro.core.config import CollectiveConfig
from repro.runtime.cluster import SimCluster
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.runtime.network import NetworkModel
from repro.runtime.trace import TraceEvent, TraceLog

NET = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, congestion_per_log2=0.1)


def _assert_invariant(log, tol=1e-9):
    """Every closed round satisfies duration == max_compute + comm + wait."""
    summaries = log.round_summaries()
    assert summaries, "expected at least one closed round"
    for s in summaries:
        assert s.duration == pytest.approx(
            s.max_compute + s.comm_time + s.wait_time, abs=tol
        ), f"round {s.round_index} breaks the accounting invariant"
    return summaries


class TestTraceLog:
    def test_round_counter(self):
        log = TraceLog()
        log.record_compute(0, "CPR", 0.1)
        log.record_round(0.2)
        log.record_comm(1, 0.05, 1000)
        log.record_round(0.1)
        assert log.n_rounds == 2

    def test_round_summaries(self):
        log = TraceLog()
        log.record_compute(0, "CPR", 0.10)
        log.record_compute(1, "CPR", 0.30)
        log.record_comm(0, 0.05, 4096)
        log.record_round(0.35)
        (summary,) = log.round_summaries()
        assert summary.max_compute == pytest.approx(0.30)
        assert summary.comm_time == pytest.approx(0.05)
        assert summary.bytes_moved == 4096
        assert summary.compute_bound

    def test_comm_bound_round(self):
        log = TraceLog()
        log.record_compute(0, "HPR", 0.01)
        log.record_comm(0, 0.5, 10**6)
        log.record_round(0.51)
        assert not log.round_summaries()[0].compute_bound

    def test_json_roundtrip(self, tmp_path):
        log = TraceLog()
        log.record_compute(2, "DPR", 0.25)
        log.record_comm(2, 0.1, 512)
        log.record_round(0.35)
        path = tmp_path / "trace.json"
        log.to_json(path)
        again = TraceLog.from_json(path.read_text())
        assert again.n_rounds == 1
        assert again.events == log.events

    def test_from_json_rejects_bad_schema(self):
        with pytest.raises(ValueError, match="schema"):
            TraceLog.from_json('{"schema": 9, "events": []}')

    def test_summaries_consume_events_once(self):
        """Regression: ``round_summaries`` must be one sweep over the event
        list, not a rescan per round (O(rounds × events) made long traces
        quadratic to post-process)."""

        class CountingList(list):
            iterations = 0

            def __iter__(self):
                CountingList.iterations += 1
                return super().__iter__()

        log = TraceLog()
        log.events = CountingList()
        for r in range(1000):
            log.record_compute(0, "CPR", 0.01)
            log.record_comm(0, 0.02, 64)
            log.record_round(0.03)
        CountingList.iterations = 0
        summaries = log.round_summaries()
        assert CountingList.iterations == 1
        assert len(summaries) == 1000
        assert all(s.bytes_moved == 64 for s in summaries)

    def test_summaries_match_naive_rescan(self):
        """The grouped sweep must agree with a per-round rescan oracle."""
        log = TraceLog()
        log.record_compute(0, "CPR", 0.10)
        log.record_compute(0, "CPR", 0.05)  # same rank accumulates
        log.record_compute(1, "HPR", 0.12)
        log.record_comm(0, 0.02, 128)
        log.record_comm(1, 0.07, 256)
        log.record_round(0.19)
        log.record_round(0.01)  # empty round: no compute, no comm
        log.record_comm(2, 0.30, 512)
        log.record_round(0.30)
        s = log.round_summaries()
        assert [x.round_index for x in s] == [0, 1, 2]
        assert s[0].max_compute == pytest.approx(0.15)
        assert s[0].comm_time == pytest.approx(0.07)
        assert s[0].bytes_moved == 384
        assert s[1].max_compute == 0.0 and s[1].bytes_moved == 0
        assert s[2].comm_time == pytest.approx(0.30)


class TestClusterIntegration:
    def test_collective_produces_trace(self, rng):
        local = [rng.normal(0, 1, 4003).astype(np.float32) for _ in range(4)]
        cluster = SimCluster(4, network=NET, trace=TraceLog())
        run(FAMILIES["mpi_reduce_scatter"], cluster, local)
        assert cluster.trace.n_rounds == 3  # N − 1 ring rounds
        summaries = cluster.trace.round_summaries()
        assert all(s.bytes_moved > 0 for s in summaries)

    def test_round_durations_sum_to_total(self, rng):
        local = [rng.normal(0, 1, 4003).astype(np.float32) for _ in range(4)]
        cluster = SimCluster(4, network=NET, trace=TraceLog())
        res = run(FAMILIES["mpi_reduce_scatter"], cluster, local)
        total = sum(s.duration for s in cluster.trace.round_summaries())
        assert total == pytest.approx(res.total_time)

    def test_hzccl_trace_shows_compression_phases(self, rng):
        local = [
            np.cumsum(rng.normal(0, 0.05, 8003)).astype(np.float32) for _ in range(4)
        ]
        config = CollectiveConfig(error_bound=1e-4, network=NET)
        cluster = SimCluster(4, network=NET, trace=TraceLog())
        run(FAMILIES["hzccl_allreduce"], cluster, local, config)
        buckets = {e.bucket for e in cluster.trace.events if e.kind == "compute"}
        assert {"CPR", "HPR", "DPR"} <= buckets

    def test_bytes_per_round_available(self, rng):
        local = [rng.normal(0, 1, 4003).astype(np.float32) for _ in range(3)]
        cluster = SimCluster(3, network=NET, trace=TraceLog())
        run(FAMILIES["mpi_reduce_scatter"], cluster, local)
        per_round = cluster.trace.bytes_per_round()
        assert len(per_round) == 2

    def test_no_trace_by_default(self, rng):
        cluster = SimCluster(3, network=NET)
        assert cluster.trace is None
        res = run(
            FAMILIES["mpi_reduce_scatter"], cluster,
            [rng.normal(0, 1, 99).astype(np.float32)] * 3,
        )
        assert res.trace is None

    def test_result_carries_scoped_trace(self, rng):
        local = [rng.normal(0, 1, 4003).astype(np.float32) for _ in range(4)]
        cluster = SimCluster(4, network=NET, trace=TraceLog())
        res = run(FAMILIES["mpi_reduce_scatter"], cluster, local)
        assert res.trace is not None
        assert res.trace is not cluster.trace
        assert res.trace.n_rounds == cluster.trace.n_rounds == 3


class TestWaitAccounting:
    """Satellite: fault waits must be visible in round summaries.

    ``charge_wait`` stretches the round duration via ``_round_compute``,
    but summaries used to ignore ``kind="fault"`` events — so
    ``max_compute + comm_time`` fell short of ``duration`` and
    ``compute_bound`` misclassified rounds under retry storms.
    """

    def test_wait_time_is_critical_path_stretch(self):
        log = TraceLog()
        log.record_compute(0, "CPR", 0.10)
        log.record_compute(1, "CPR", 0.08)
        log.record_fault(1, "TIMEOUT", seconds=0.05)
        # makespan charges rank 1 its compute + wait = 0.13 > rank 0's 0.10
        log.record_round(0.13 + 0.02, comm=0.02)
        (s,) = log.round_summaries()
        assert s.max_compute == pytest.approx(0.10)
        assert s.wait_time == pytest.approx(0.03)
        assert s.duration == pytest.approx(
            s.max_compute + s.comm_time + s.wait_time
        )

    def test_wait_on_fast_rank_off_critical_path(self):
        log = TraceLog()
        log.record_compute(0, "CPR", 0.10)
        log.record_compute(1, "CPR", 0.02)
        log.record_fault(1, "TIMEOUT", seconds=0.03)  # 0.05 total < 0.10
        log.record_round(0.10, comm=0.0)
        (s,) = log.round_summaries()
        assert s.wait_time == 0.0

    def test_zero_second_faults_do_not_count_as_waits(self):
        log = TraceLog()
        log.record_compute(0, "CPR", 0.10)
        log.record_fault(0, "DROP", nbytes=512)  # marker, no wait
        log.record_fault(-1, "DEGRADE")  # cluster-scope marker
        log.record_round(0.10, comm=0.0)
        (s,) = log.round_summaries()
        assert s.wait_time == 0.0

    def test_invariant_under_injected_timeouts(self, rng):
        """Acceptance criterion: seeded FaultPlan with timeouts, every
        RoundSummary satisfies the invariant within 1e-9."""
        plan = FaultPlan(seed=1234, drop_rate=0.15, corrupt_rate=0.05)
        cluster = SimCluster(
            8,
            network=NET,
            trace=TraceLog(),
            faults=plan,
            retry=RetryPolicy(timeout_s=100e-6),
        )
        local = [
            np.cumsum(rng.normal(0, 0.05, 4096)).astype(np.float32)
            for _ in range(8)
        ]
        res = run(
            FAMILIES["hzccl_allreduce"], cluster, local,
            CollectiveConfig(error_bound=1e-4, network=NET),
        )
        summaries = _assert_invariant(res.trace)
        assert any(s.wait_time > 0 for s in summaries), (
            "fault plan injected no waits — raise drop_rate or reseed"
        )
        assert res.trace.fault_summary().get("TIMEOUT", 0) > 0

    def test_invariant_on_plain_path_under_drops(self, rng):
        plan = FaultPlan(seed=7, drop_rate=0.2)
        cluster = SimCluster(4, network=NET, trace=TraceLog(), faults=plan)
        local = [rng.normal(0, 1, 2048).astype(np.float32) for _ in range(4)]
        res = run(FAMILIES["mpi_allreduce"], cluster, local)
        summaries = _assert_invariant(res.trace)
        assert any(s.wait_time > 0 for s in summaries)

    def test_bucket_totals_include_waits(self):
        log = TraceLog()
        log.record_compute(0, "CPR", 0.1)
        log.record_comm(0, 0.2, 64)
        log.record_fault(0, "TIMEOUT", seconds=0.3)
        totals = log.bucket_totals()
        assert totals == pytest.approx(
            {"CPR": 0.1, "MPI": 0.2, "WAIT": 0.3}
        )


class TestResetRotation:
    """Satellite: ``SimCluster.reset()`` must not leak stale rounds."""

    def test_reset_rotates_trace(self):
        cluster = SimCluster(2, network=NET, trace=TraceLog())
        cluster.charge_compute(0, "CPR", 0.1)
        cluster.end_compute_phase()
        old = cluster.trace
        cluster.reset()
        assert cluster.trace is not old
        assert cluster.trace.n_rounds == 0
        assert cluster.trace.events == []
        # the rotated-out log is left intact for existing references
        assert old.n_rounds == 1

    def test_back_to_back_collectives_on_one_cluster(self, rng):
        local = [rng.normal(0, 1, 4003).astype(np.float32) for _ in range(4)]
        cluster = SimCluster(4, network=NET, trace=TraceLog())
        first = run(FAMILIES["mpi_reduce_scatter"], cluster, local)
        cluster.reset()
        second = run(FAMILIES["mpi_reduce_scatter"], cluster, local)
        # without rotation the second summaries would contain 6 rounds
        assert cluster.trace.n_rounds == 3
        assert second.trace.n_rounds == 3
        assert len(cluster.trace.bytes_per_round()) == 3
        assert first.trace.n_rounds == 3  # first result's slice unharmed
        assert sum(s.bytes_moved for s in second.trace.round_summaries()) == (
            second.bytes_on_wire
        )

    def test_reset_without_trace_stays_none(self):
        cluster = SimCluster(2, network=NET)
        cluster.reset()
        assert cluster.trace is None


_EVENT_STRATEGY = st.builds(
    TraceEvent,
    kind=st.sampled_from(["compute", "comm", "round", "fault", "begin", "end"]),
    round_index=st.integers(min_value=0, max_value=6),
    rank=st.integers(min_value=-1, max_value=7),
    bucket=st.sampled_from(["CPR", "DPR", "CPT", "HPR", "MPI", "ROUND"]),
    seconds=st.floats(
        min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
    ),
    nbytes=st.integers(min_value=0, max_value=1 << 30),
    label=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_-", min_size=0, max_size=12
    ),
    comm_s=st.one_of(
        st.none(),
        st.floats(
            min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
        ),
    ),
)


class TestSchemaV2:
    """Satellite: persist the round counter so partial rounds survive."""

    def test_partial_round_survives_roundtrip(self):
        log = TraceLog()
        log.record_compute(0, "CPR", 0.1)
        log.record_round(0.1, comm=0.0)
        # trailing partial round: charges recorded, round never closed
        log.record_compute(1, "HPR", 0.2)
        log.record_fault(1, "TIMEOUT", seconds=0.01)
        again = TraceLog.from_json(log.to_json())
        assert again.n_rounds == 1
        assert again.events == log.events
        # appending to the restored log continues in the right round
        again.record_compute(0, "CPR", 0.05)
        assert again.events[-1].round_index == 1

    def test_schema_v2_document_shape(self):
        log = TraceLog()
        log.record_round(0.5, comm=0.2)
        doc = json.loads(log.to_json())
        assert doc["schema"] == 2
        assert doc["rounds"] == 1
        (event,) = doc["events"]
        assert event["comm_s"] == 0.2
        # default-valued fields are omitted from the compact encoding
        assert "nbytes" not in event and "label" not in event

    def test_schema_v1_still_accepted(self):
        doc = json.dumps(
            {
                "schema": 1,
                "events": [
                    {
                        "kind": "compute",
                        "round_index": 0,
                        "rank": 0,
                        "bucket": "CPR",
                        "seconds": 0.1,
                        "nbytes": 0,
                    },
                    {
                        "kind": "round",
                        "round_index": 0,
                        "rank": -1,
                        "bucket": "ROUND",
                        "seconds": 0.1,
                        "nbytes": 0,
                    },
                ],
            }
        )
        log = TraceLog.from_json(doc)
        assert log.n_rounds == 1  # v1 fallback: count round events
        assert log.events[0].comm_s is None

    @settings(max_examples=50, deadline=None)
    @given(
        events=st.lists(_EVENT_STRATEGY, max_size=30),
        extra_rounds=st.integers(min_value=0, max_value=3),
    )
    def test_roundtrip_property(self, events, extra_rounds):
        log = TraceLog()
        for e in events:
            log.events.append(e)
        log._round = (
            sum(1 for e in events if e.kind == "round") + extra_rounds
        )
        again = TraceLog.from_json(log.to_json())
        assert again.events == log.events
        assert again.n_rounds == log.n_rounds


class TestThreadModeAndDegradedLinks:
    """Satellite: accounting under multithread mode and degraded links."""

    def test_thread_scaling_applied_exactly_once(self):
        """The path timed → charge_compute → trace must divide by the
        thread speedup once: trace event, clock ledger, and round compute
        all agree on the scaled value."""
        cluster = SimCluster(
            2, network=NET, multithread=True, thread_speedup=4.0,
            trace=TraceLog(),
        )
        cluster.charge_compute(0, "CPR", 0.8)
        (event,) = [e for e in cluster.trace.events if e.kind == "compute"]
        assert event.seconds == pytest.approx(0.2)
        assert cluster.clocks[0].buckets["CPR"] == pytest.approx(0.2)
        duration = cluster.end_compute_phase()
        assert duration == pytest.approx(0.2)
        (s,) = cluster.trace.round_summaries()
        assert s.max_compute == pytest.approx(0.2)

    def test_mpi_bucket_never_thread_scaled(self):
        cluster = SimCluster(
            2, network=NET, multithread=True, thread_speedup=4.0,
            trace=TraceLog(),
        )
        seconds = cluster.charge_comm(0, 10**6)
        assert seconds == pytest.approx(NET.transfer_time(10**6, 2))

    @pytest.mark.parametrize("multithread", [False, True])
    def test_bytes_moved_matches_bytes_on_wire(self, rng, multithread):
        local = [
            np.cumsum(rng.normal(0, 0.05, 4096)).astype(np.float32)
            for _ in range(4)
        ]
        cluster = SimCluster(
            4, network=NET, multithread=multithread, trace=TraceLog()
        )
        res = run(
            FAMILIES["hzccl_allreduce"], cluster, local,
            CollectiveConfig(error_bound=1e-4, network=NET),
        )
        assert sum(s.bytes_moved for s in res.trace.round_summaries()) == (
            res.bytes_on_wire
        )
        _assert_invariant(res.trace)

    def test_invariant_under_degraded_links(self, rng):
        """Degraded links stretch per-rank comm events but not the
        modelled round exchange; the round event's own comm component
        keeps the invariant exact."""
        plan = FaultPlan(
            seed=3, degraded_links=((0, 1, 0.25), (2, 3, 0.5))
        )
        cluster = SimCluster(4, network=NET, trace=TraceLog(), faults=plan)
        local = [rng.normal(0, 1, 4096).astype(np.float32) for _ in range(4)]
        res = run(FAMILIES["mpi_allreduce"], cluster, local)
        summaries = _assert_invariant(res.trace)
        # the stretched per-rank transfer exceeds the round's modelled comm
        comm_events = [
            e.seconds for e in res.trace.events if e.kind == "comm"
        ]
        assert max(comm_events) > max(s.comm_time for s in summaries) * 1.5
        assert sum(s.bytes_moved for s in summaries) == res.bytes_on_wire

    def test_multithread_invariant_under_faults(self, rng):
        plan = FaultPlan(seed=11, drop_rate=0.1)
        cluster = SimCluster(
            4, network=NET, multithread=True, trace=TraceLog(), faults=plan
        )
        local = [
            np.cumsum(rng.normal(0, 0.05, 2048)).astype(np.float32)
            for _ in range(4)
        ]
        res = run(
            FAMILIES["hzccl_allreduce"], cluster, local,
            CollectiveConfig(error_bound=1e-4, network=NET),
        )
        _assert_invariant(res.trace)
