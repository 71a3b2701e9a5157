"""The per-call floor, pinned as interpreter-level call counts.

A 2 KB ring block is 18 small blocks: what one CPR / DPR / HPR call costs
there is not arithmetic but the number of Python and C function calls
around it (ROADMAP item 1a).  Times drift with the box; the number of
``call`` + ``c_call`` events one warmed call raises under
``sys.setprofile`` does not, so that is what this test bounds.  The
stream-layout rework measured HPR 247, CPR 168, DPR 127 and k = 8 583 on
these inputs, against 757 / 347 / 291 / 1907 before it; the ceilings leave
room for a helper or two, not for the old per-call derivations.
"""

import sys

import numpy as np
import pytest

from repro.compression.fzlight import FZLight
from repro.homomorphic.hzdynamic import HZDynamic
from repro.kernels.dispatch import use_backend

ELEMENTS = 512  # one sim-small ring block: 2 KB of float32
ERROR_BOUND = 1e-4


def count_calls(fn) -> int:
    """``call`` + ``c_call`` events of one ``fn()`` after two warm-ups."""
    fn()
    fn()
    events = [0]

    def profiler(frame, event, arg):
        if event in ("call", "c_call"):
            events[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return events[0] - 1  # the closing sys.setprofile is a c_call itself


@pytest.fixture(scope="module")
def floor():
    """Dense random walks at the facade geometry (CollectiveConfig's)."""
    rng = np.random.default_rng(5)
    blocks = [
        np.cumsum(rng.normal(0, 0.02, ELEMENTS)).astype(np.float32)
        for _ in range(8)
    ]
    comp = FZLight(block_size=32, n_threadblocks=18)
    with use_backend("numpy"):
        fields = comp.compress(blocks, abs_eb=ERROR_BOUND)
    assert all((f.code_lengths != 0).all() for f in fields)  # dense
    return comp, blocks, fields


@pytest.mark.parametrize(
    "kernel,ceiling",
    [("hpr", 300), ("cpr", 200), ("dpr", 160), ("fused_k8", 800)],
)
def test_warmed_call_stays_under_its_ceiling(floor, kernel, ceiling):
    comp, blocks, fields = floor
    engine = HZDynamic()  # statistics on, as the collectives run it
    call = {
        "hpr": lambda: engine.reduce_fused(fields[:2]),
        "cpr": lambda: comp.compress(blocks[0], abs_eb=ERROR_BOUND),
        "dpr": lambda: comp.decompress(fields[0]),
        "fused_k8": lambda: engine.reduce_fused(fields),
    }[kernel]
    with use_backend("numpy"):
        calls = count_calls(call)
    assert calls <= ceiling, f"{kernel}: {calls} interpreter-level calls"
