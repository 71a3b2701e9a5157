"""Resilient-channel behaviour on a simulated cluster.

Covers the delivery state machine: fault-free fast path, retransmission
charging, corruption detection via the wire checksum, the unrecoverable
escalation on the compressed path, and the reliable floor on the plain
path.  ``_send`` bills a message the way the schedule executor does: the
scheduled transfer once on its link, then the channel's walk, which adds
only the fault handling.
"""

import contextlib

import numpy as np
import pytest

from repro.runtime import (
    FaultPlan,
    RetryPolicy,
    SimCluster,
    TraceLog,
    UnrecoverableStreamError,
)


@pytest.fixture()
def field(small_compressor, rng):
    data = np.cumsum(rng.normal(0, 0.1, 640)).astype(np.float32)
    return small_compressor.compress(data, abs_eb=1e-3)


def _cluster(fast_network, plan=None, retry=None):
    kwargs = {"trace": TraceLog()}
    if retry is not None:
        kwargs["retry"] = retry
    return SimCluster(4, network=fast_network, faults=plan, **kwargs)


def _send(cluster, payload, nbytes=None, compressed=True):
    """One message 0 → 1: ``(delivery, bytes billed on the wire)``."""
    nbytes = payload.nbytes if nbytes is None else nbytes
    cluster.channel.charge_link(0, 1, nbytes)
    d = cluster.channel.deliver(0, 1, payload, nbytes, compressed)
    return d, nbytes + d.nbytes


class TestHealthyPath:
    def test_plain_delivery_charges_like_charge_comm(self, fast_network):
        faulty = _cluster(fast_network)
        reference = _cluster(fast_network)
        d, billed = _send(faulty, "x", 1000, compressed=False)
        reference.charge_comm(1, 1000)
        assert d.payload == "x" and billed == 1000 and d.attempts == 1
        assert faulty.clocks[1].buckets == reference.clocks[1].buckets

    def test_compressed_delivery_fast_path(self, fast_network, field):
        cluster = _cluster(fast_network)
        d, billed = _send(cluster, field)
        assert d.payload is field
        assert billed == field.nbytes
        assert cluster.channel.stats.total_faults == 0

    def test_healthy_walk_bills_nothing(self, fast_network, field):
        cluster = _cluster(fast_network)
        d = cluster.channel.deliver(0, 1, field, field.nbytes, True)
        assert d.nbytes == 0
        assert cluster.clocks[1].total == 0.0


class TestDrops:
    def test_drop_charges_timeout_and_retries(self, fast_network, field):
        plan = FaultPlan(seed=1, drop_rate=0.5)
        cluster = _cluster(fast_network, plan)
        for _ in range(20):
            with contextlib.suppress(UnrecoverableStreamError):
                _send(cluster, field)
        stats = cluster.channel.stats
        assert stats.drops > 0
        assert stats.timeouts == stats.drops
        assert stats.retry_seconds > 0
        assert cluster.clocks[1].buckets["OTHER"] > 0  # waits hit the clock
        labels = cluster.trace.fault_summary()
        assert labels["DROP"] == stats.drops
        assert labels["TIMEOUT"] == stats.drops

    def test_retry_wait_grows_with_backoff(self, fast_network, field):
        retry = RetryPolicy(
            timeout_s=100e-6, base_delay_s=50e-6, backoff=2.0, max_attempts=4
        )
        plan = FaultPlan(seed=1, drop_rate=1.0)
        cluster = _cluster(fast_network, plan, retry)
        with pytest.raises(UnrecoverableStreamError):
            _send(cluster, field)
        # attempts 0..3 all dropped: waits are timeout + 50, 100, 200, 400 µs
        expected = 4 * retry.timeout_s + (50 + 100 + 200 + 400) * 1e-6
        assert cluster.clocks[1].buckets["OTHER"] == pytest.approx(expected)


class TestCorruption:
    def test_corrupt_stream_detected_and_retransmitted(self, fast_network, field):
        plan = FaultPlan(seed=2, corrupt_rate=0.5)
        cluster = _cluster(fast_network, plan)
        sends = [_send(cluster, field) for _ in range(20)]
        stats = cluster.channel.stats
        assert stats.corruptions > 0
        # every delivery still handed back the intact stream object
        assert all(d.payload is field for d, _ in sends)
        # retransmissions paid extra wire bytes
        assert sum(billed for _, billed in sends) > 20 * field.nbytes

    def test_all_attempts_corrupt_raises_unrecoverable(self, fast_network, field):
        plan = FaultPlan(seed=3, corrupt_rate=1.0)
        cluster = _cluster(fast_network, plan)
        with pytest.raises(UnrecoverableStreamError) as err:
            _send(cluster, field)
        assert err.value.attempts == cluster.retry.max_attempts
        assert cluster.trace.fault_summary()["CORRUPT"] == 4

    def test_plain_path_never_raises(self, fast_network):
        plan = FaultPlan(seed=3, corrupt_rate=1.0)
        cluster = _cluster(fast_network, plan)
        d, _ = _send(cluster, "payload", 512, compressed=False)
        assert d.payload == "payload"
        assert cluster.channel.stats.forced_deliveries == 1

    def test_plain_drop_storm_terminates(self, fast_network):
        plan = FaultPlan(seed=4, drop_rate=1.0)
        cluster = _cluster(fast_network, plan)
        d, _ = _send(cluster, b"x", 64, compressed=False)
        assert d.payload == b"x"
        assert d.attempts == cluster.retry.max_attempts + 1


class TestDuplicates:
    def test_duplicate_charges_twice(self, fast_network, field):
        plan = FaultPlan(seed=5, duplicate_rate=1.0)
        cluster = _cluster(fast_network, plan)
        _, billed = _send(cluster, field)
        assert billed == 2 * field.nbytes
        assert cluster.channel.stats.duplicates == 1


class TestDegradedLinks:
    def test_degraded_link_stretches_transfer(self, fast_network, field):
        plan = FaultPlan(seed=6, degraded_links=((0, 1, 0.5),))
        slow = _cluster(fast_network, plan)
        fast = _cluster(fast_network, FaultPlan(seed=6))
        _send(slow, field)
        _send(fast, field)
        assert slow.clocks[1].buckets["MPI"] == pytest.approx(
            2 * fast.clocks[1].buckets["MPI"]
        )

    def test_straggler_scales_compute_charges(self, fast_network):
        plan = FaultPlan(seed=7, stragglers=(2,), straggler_factor=10.0)
        cluster = _cluster(fast_network, plan)
        cluster.charge_compute(2, "CPT", 1e-3)
        cluster.charge_compute(0, "CPT", 1e-3)
        assert cluster.clocks[2].buckets["CPT"] == pytest.approx(
            10 * cluster.clocks[0].buckets["CPT"]
        )


class TestChannelLifecycle:
    def test_channel_survives_multiple_stages(self, fast_network, field):
        plan = FaultPlan(seed=8, drop_rate=0.3)
        cluster = _cluster(fast_network, plan)
        ch1 = cluster.channel
        for _ in range(10):
            with contextlib.suppress(UnrecoverableStreamError):
                _send(cluster, field)
        seen = ch1.stats.messages
        assert cluster.channel is ch1  # same stage-spanning channel
        assert cluster.channel.stats.messages == seen

    def test_reset_clears_channel(self, fast_network, field):
        plan = FaultPlan(seed=8, drop_rate=0.3)
        cluster = _cluster(fast_network, plan)
        with contextlib.suppress(UnrecoverableStreamError):
            _send(cluster, field)
        cluster.reset()
        assert cluster.channel.stats.messages == 0

    def test_degrade_records_trace_event(self, fast_network):
        cluster = _cluster(fast_network, FaultPlan(seed=9))
        cluster.channel.degrade()
        assert cluster.channel.stats.degraded_ops == 1
        assert cluster.trace.fault_summary() == {"DEGRADE": 1}
