import asyncio
import threading

import pytest

from e2e_bench.trace import (
    Recorder,
    Span,
    Target,
    covered,
    self_times,
    summarize,
)


def span(sid, parent, t0, t1, name="x", thread=1, op=1):
    return Span(sid, parent, op, name, "layer", t0, t1, thread)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4)
    assert covered([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4)
    assert covered([], 0, 10) == 0


def test_self_time_nested_sibling_and_cross_thread():
    spans = [
        span(1, 0, 0.0, 10.0, "root"),
        span(2, 1, 1.0, 4.0, "a"),  # sibling
        span(3, 1, 5.0, 9.0, "b"),  # sibling with a child of its own
        span(4, 3, 6.0, 8.0, "c"),  # nested
        # two worker threads under b, overlapping each other and c
        span(5, 3, 5.5, 7.0, "t1", thread=2),
        span(6, 3, 6.5, 8.5, "t2", thread=3),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 3 - 4)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(4 - 3.0)  # children cover 5.5 .. 8.5
    assert selfs[4] == pytest.approx(2)
    summary = summarize(spans)
    assert summary["ops"] == 1
    assert summary["by_name"]["a"] == {
        "calls": 1, "self_s": pytest.approx(3), "arena_allocs": 0,
    }


def test_self_times_of_a_sequential_tree_add_up_to_the_root():
    spans = [
        span(1, 0, 0.0, 8.0),
        span(2, 1, 0.5, 3.0),
        span(3, 2, 1.0, 2.0),
        span(4, 1, 3.0, 7.5),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


class Box:
    def work(self, x):
        return x + 1

    async def awork(self, x):
        await asyncio.sleep(0)
        return await asyncio.to_thread(self.work, x)


PLACE = f"{__name__}:Box"
TARGETS = (
    Target("box.work", "test", (f"{PLACE}.work",)),
    Target("box.awork", "test", (f"{PLACE}.awork",)),
    Target("gone", "test", (f"{PLACE}.removed_by_a_refactor",)),
    Target("gone.module", "test", ("no_such_module_anywhere:f",)),
)


def test_wrappers_restore_the_originals_and_tolerate_missing_targets():
    work, awork = Box.__dict__["work"], Box.__dict__["awork"]
    rec = Recorder()
    rec.install(TARGETS)
    try:
        assert Box.__dict__["work"] is not work
        assert len(rec.notes) == 2 and "gone" in rec.notes[0]
        assert Box().work(1) == 2  # installed but not enabled: no span
        assert rec.spans == []
        rec.enabled = True
        assert Box().work(1) == 2
        assert [s.name for s in rec.spans] == ["box.work"]
    finally:
        rec.uninstall()
    assert Box.__dict__["work"] is work and Box.__dict__["awork"] is awork


def test_context_manager_uninstalls_on_error():
    work = Box.__dict__["work"]
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with rec:
            rec.install(TARGETS[:1])
            raise RuntimeError("boom")
    assert Box.__dict__["work"] is work and not rec.enabled


def test_parent_survives_the_hop_onto_a_worker_thread():
    rec = Recorder()
    rec.install(TARGETS[:2])
    rec.enabled = True
    try:
        assert asyncio.run(Box().awork(1)) == 2
    finally:
        rec.uninstall()
    outer = next(s for s in rec.spans if s.name == "box.awork")
    inner = next(s for s in rec.spans if s.name == "box.work")
    assert outer.parent == 0 and outer.op == outer.id
    assert inner.parent == outer.id and inner.op == outer.id
    assert inner.thread != threading.get_ident() == outer.thread


def test_one_wrapper_covers_every_binding_of_a_function():
    import repro.core.api
    import repro.core.pipeline
    import repro.service

    original = repro.core.pipeline.plan
    target = Target(
        "core.plan", "core",
        ("repro.core.pipeline:plan", "repro.core.api:plan", "repro.service:plan"),
    )
    rec = Recorder()
    rec.install((target,))
    try:
        assert repro.core.api.plan is repro.core.pipeline.plan is repro.service.plan
        assert repro.core.api.plan is not original
    finally:
        rec.uninstall()
    assert repro.core.api.plan is repro.service.plan is original


def test_every_default_target_resolves_in_this_tree():
    rec = Recorder()
    with rec:
        assert rec.notes == []
