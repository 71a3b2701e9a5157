"""Regression tests for the schedule-profile cache in the cost model.

The cache maps ``id(schedule)`` → profile for O(1) dry-run lookups.  Three
historical bugs are pinned here:

* the cache used to hold a **strong** reference to every schedule it
  ever profiled, so tuning sweeps over throwaway schedules leaked
  profiles without bound;
* because entries outlived their schedules, a recycled ``id()`` could
  serve a *stale* profile for a brand-new, structurally different
  schedule;
* an entry's memo was keyed by the charge table's *name*, so a second
  table that kept it (as a stage's slot override keeps its codec's) was
  served the first table's profile.

The fix keys the entry by id but holds only a ``weakref`` whose callback
evicts the entry the moment the schedule is collected — before its id
can ever be reused — plus an identity check on lookup, and keys the memo
by the table's value.
"""

import gc
from dataclasses import replace

import pytest

from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime.network import NetworkModel
from repro.schedule.codecs import HomomorphicCodec, PlainCodec
from repro.schedule.cost import _PROFILE_CACHE, schedule_cost
from repro.schedule.ir import CommOp, Phase, Round, Schedule

NET = NetworkModel()
PLAIN = PlainCodec.discipline
HZ_REDUCE = HomomorphicCodec.discipline


def _throwaway_schedule(n: int, tag: int) -> Schedule:
    """A fresh, uncached schedule object (unlike the memoised generators)."""
    rnd = Round(
        kind="exchange",
        comms=tuple(
            CommOp(src=i, dst=(i + 1) % n, blocks=(i,), action="fold")
            for i in range(n)
        ),
    )
    return Schedule(
        name=f"throwaway-{tag}", n_ranks=n, phases=(Phase("exchange", (rnd,)),)
    ).validate()


def test_entry_evicted_when_schedule_collected():
    sched = _throwaway_schedule(4, tag=0)
    schedule_cost(sched, PLAIN, 1 << 16, PAPER_BROADWELL, NET)
    key = id(sched)
    assert key in _PROFILE_CACHE
    del sched
    gc.collect()
    assert key not in _PROFILE_CACHE


def test_sweep_over_throwaway_schedules_does_not_accumulate():
    gc.collect()
    before = len(_PROFILE_CACHE)
    for tag in range(200):
        schedule_cost(
            _throwaway_schedule(4, tag), PLAIN, 1 << 16, PAPER_BROADWELL, NET
        )
    gc.collect()
    assert len(_PROFILE_CACHE) <= before + 1  # at most the last temporary


def test_recycled_id_never_serves_stale_profile():
    """Same id, different schedule ⇒ different (correct) costs.

    Allocation patterns make genuine id reuse hard to force portably, so
    the test drives the hazard directly: profile schedule A, then make
    the cache believe a structurally different schedule B lives at a
    colliding key.  The identity check must reject the hit."""
    a = _throwaway_schedule(4, tag=1)
    cost_a = schedule_cost(a, PLAIN, 1 << 16, PAPER_BROADWELL, NET)
    b = _throwaway_schedule(8, tag=2)
    cost_b_fresh = schedule_cost(b, PLAIN, 1 << 16, PAPER_BROADWELL, NET)
    # simulate id collision: plant A's entry under B's key
    _PROFILE_CACHE[id(b)] = _PROFILE_CACHE[id(a)]
    try:
        cost_b = schedule_cost(b, PLAIN, 1 << 16, PAPER_BROADWELL, NET)
    finally:
        _PROFILE_CACHE.pop(id(b), None)
        _PROFILE_CACHE.pop(id(a), None)
    assert cost_b.total_time == cost_b_fresh.total_time
    assert cost_b.total_time != cost_a.total_time


def test_profiles_memoised_per_discipline():
    sched = _throwaway_schedule(4, tag=3)
    plain = schedule_cost(sched, PLAIN, 1 << 16, PAPER_BROADWELL, NET)
    hz = schedule_cost(sched, HZ_REDUCE, 1 << 16, PAPER_BROADWELL, NET)
    memo = _PROFILE_CACHE[id(sched)][1]
    assert set(memo) == {PLAIN, HZ_REDUCE}
    # repeat calls reproduce exactly (served from the memo)
    assert (
        schedule_cost(sched, PLAIN, 1 << 16, PAPER_BROADWELL, NET).total_time
        == plain.total_time
    )
    assert (
        schedule_cost(
            sched, HZ_REDUCE, 1 << 16, PAPER_BROADWELL, NET
        ).total_time
        == hz.total_time
    )


def test_rejects_non_positive_bytes():
    sched = _throwaway_schedule(4, tag=4)
    with pytest.raises(ValueError):
        schedule_cost(sched, PLAIN, 0, PAPER_BROADWELL, NET)


def test_tables_sharing_a_name_are_profiled_apart():
    """The memo is keyed by the table's value: a table that keeps another's
    name is priced by its own charges, not served the other's profile."""
    hpr_fold = replace(PLAIN, fold=(("HPR", "hpr"),))
    sched = _throwaway_schedule(4, tag=5)
    schedule_cost(sched, PLAIN, 1 << 16, PAPER_BROADWELL, NET)
    cost = schedule_cost(sched, hpr_fold, 1 << 16, PAPER_BROADWELL, NET)
    fresh = schedule_cost(
        _throwaway_schedule(4, tag=6), hpr_fold, 1 << 16, PAPER_BROADWELL, NET
    )
    assert cost.buckets["CPT"] == 0.0
    assert cost.buckets["HPR"] == fresh.buckets["HPR"] > 0.0
