"""The per-call floor, pinned as interpreter-level call counts.

A 2 KB ring block is 18 small blocks: what one CPR / DPR / HPR call costs
there is not arithmetic but the number of Python and C function calls
around it (ROADMAP item 1a).  Times drift with the box; the number of
``call`` + ``c_call`` events one warmed call raises under
``sys.setprofile`` does not, so that is what this test bounds.

The first four cases repeat one call, so its stream layouts are found
built.  The rest are what a ``sim-small`` op runs, on fresh inputs: the
encode of a quantised block whose code lengths no stream had before (the
layout is built), the ring fold of a received stream into a quantised
partial, and the eight-member quantise and decompress sweeps (the
decompress on eight separately coded streams, so the batch's layout is
built).  The staged-layout rework measured, on these inputs, HPR 137,
CPR 113, DPR 77, k = 8 351, fresh CPR 79, ring fold 67, quantise sweep
98 and decompress sweep 132, against 234 / 167 / 126 / 574 / 137 / 124 /
215 / 340 before it; each ceiling is its count plus at most 10 %.  The
first four ids keep the ceilings they were first pinned with.
"""

import sys
from itertools import count

import numpy as np
import pytest

from repro.compression.fzlight import FZLight
from repro.homomorphic.hzdynamic import HZDynamic
from repro.kernels.dispatch import use_backend

ELEMENTS = 512  # one sim-small ring block: 2 KB of float32
ERROR_BOUND = 1e-4
#: fresh inputs per case: two warm-ups and the counted call
FRESH = 3


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


@pytest.fixture
def fresh(floor):
    """Per call, inputs no earlier call saw: quantised blocks, received
    streams (coded one by one, as their senders did) and sets of eight."""
    comp = floor[0]
    rng = np.random.default_rng(9)
    walks = iter(
        [np.cumsum(rng.normal(0, 0.02, ELEMENTS)).astype(np.float32)
         for _ in range(FRESH * 10)]
    )
    with use_backend("numpy"):
        own = comp.quantise([next(walks) for _ in range(FRESH)], abs_eb=ERROR_BOUND)
        received = [comp.compress(next(walks), abs_eb=ERROR_BOUND) for _ in range(FRESH)]
        sets = [
            [comp.compress(next(walks), abs_eb=ERROR_BOUND) for _ in range(8)]
            for _ in range(FRESH)
        ]
    return own, received, sets


@pytest.mark.parametrize(
    "kernel,ceiling",
    [
        pytest.param("hpr", 150, id="hpr-300"),
        pytest.param("cpr", 124, id="cpr-200"),
        pytest.param("dpr", 84, id="dpr-160"),
        pytest.param("fused_k8", 386, id="fused_k8-800"),
        ("cpr_fresh", 86),
        ("ring_fold", 73),
        ("quantise_sweep8", 107),
        ("decompress_sweep8", 145),
    ],
)
def test_warmed_call_stays_under_its_ceiling(floor, fresh, kernel, ceiling):
    comp, blocks, fields = floor
    own, received, sets = fresh
    engine = HZDynamic()  # statistics on, as the collectives run it
    turn = count()
    call = {
        "hpr": lambda: engine.reduce_fused(fields[:2]),
        "cpr": lambda: comp.compress(blocks[0], abs_eb=ERROR_BOUND),
        "dpr": lambda: comp.decompress(fields[0]),
        "fused_k8": lambda: engine.reduce_fused(fields),
        "cpr_fresh": lambda: comp.compress(own[next(turn)]),
        "ring_fold": lambda: engine.reduce_fused(
            [own[(i := next(turn))], received[i]]
        ),
        "quantise_sweep8": lambda: comp.quantise(blocks, abs_eb=ERROR_BOUND),
        "decompress_sweep8": lambda: comp.decompress(sets[next(turn)]),
    }[kernel]
    with use_backend("numpy"):
        calls = count_calls(call)
    assert calls <= ceiling, f"{kernel}: {calls} interpreter-level calls"
