"""Regression: candidate enumeration must not re-profile schedules.

``schedule_cost`` builds one structural profile per (schedule,
discipline) — but the profile cache holds only a *weak* reference to the
schedule, so a tuning loop that let its candidate schedules die between
scored message sizes would rebuild every profile at every size (the bug
this file pins: enumeration used to re-profile identical candidate
schedules).  The fix is :func:`candidate_stages`: an ``lru_cache`` over
``(candidate, n, nodemap)`` whose cached stage tuples pin strong
references to the generator schedules, keeping their profiles alive for
the whole sweep.

The test counts actual profile builds through
:func:`repro.schedule.cost.profile_stats` while scoring a full grid
point fan (6 sizes × 2 roughness classes × every candidate): builds may
not exceed the number of *distinct* (schedule, discipline) pairs, and
the second fan over the same shapes must build nothing at all.
"""

from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime import NodeMap, TorusNetwork
from repro.schedule.cost import profile_stats
from repro.schedule.tuner import (
    candidate_stages,
    enumerate_candidates,
    tune_point,
)

# unusual shapes so the memoised generators start cold in this module
N = 12
NODEMAP = NodeMap.regular(N, 4)
SIZES = tuple((1 << 16) * (4**i) for i in range(6))   # 64 KB … 64 MB
NET = TorusNetwork()


def _distinct_stage_pairs() -> int:
    pairs = set()
    for cand in enumerate_candidates(N, NODEMAP):
        for sched, disc in candidate_stages(
            cand, N, NODEMAP if cand.hierarchical else None
        ):
            pairs.add((id(sched), disc))
    return len(pairs)


def test_enumeration_profiles_each_stage_pair_once():
    budget = _distinct_stage_pairs()
    before = profile_stats()["builds"]
    for size in SIZES:
        for roughness in ("smooth", "rough"):
            tune_point(N, size, NET, roughness, PAPER_BROADWELL, NODEMAP)
    built = profile_stats()["builds"] - before
    # one build per distinct (schedule, discipline) pair — NOT per scored
    # size/roughness combination (which would be 12× that)
    assert built <= budget, (
        f"{built} profile builds for {budget} distinct stage pairs: "
        "candidate schedules are being re-profiled during enumeration"
    )

    # …and a second identical fan is all cache hits
    before_builds = profile_stats()["builds"]
    before_hits = profile_stats()["hits"]
    for size in SIZES:
        for roughness in ("smooth", "rough"):
            tune_point(N, size, NET, roughness, PAPER_BROADWELL, NODEMAP)
    assert profile_stats()["builds"] == before_builds
    assert profile_stats()["hits"] > before_hits


def test_candidate_stages_returns_identical_objects():
    """The hoist itself: repeated calls hand back the *same* schedule
    objects (identity, not just equality), which is what keeps the
    id-keyed weak-ref profile cache warm."""
    for cand in enumerate_candidates(N, NODEMAP):
        nm = NODEMAP if cand.hierarchical else None
        first = candidate_stages(cand, N, nm)
        second = candidate_stages(cand, N, nm)
        for (s1, d1), (s2, d2) in zip(first, second):
            assert s1 is s2
            assert d1 is d2
