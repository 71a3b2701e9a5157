"""A stream's layout is found three ways; the bytes must not care which.

A field folded in memory carries the layout its encoder built; one that
crossed a wire (``MPCluster``) looks it up by its code lengths; one whose
signature was evicted in between builds it again.  The fold of the same
operands must serialise identically on all three routes — and equal an
independent reference that knows nothing of layouts: every operand decoded
by the per-block scalar loops of :mod:`repro.kernels._kernels_py`, summed
with ``np.add``, and encoded by the same loops.
"""

import numpy as np
import pytest

from repro.compression import fzlight as fzlight_module
from repro.compression.format import CompressedField, from_bytes
from repro.compression.fzlight import FZLight
from repro.datasets.synthetic import snapshot_series
from repro.homomorphic.hzdynamic import HZDynamic
from repro.kernels import _kernels_py
from repro.kernels import plan as plan_module
from repro.kernels.plan import payload_offsets, stream_layout

DATASETS = ("sim1", "sim2", "nyx", "cesm", "hurricane")
#: elements -> (3-D dims, 2-D dims for cesm)
SHAPES = {
    512: ((8, 8, 8), (16, 32)),
    1024: ((8, 8, 16), (32, 32)),
    65536: ((16, 64, 64), (256, 256)),
}
COMP = FZLight(block_size=32, n_threadblocks=18)


def operands(dataset: str, k: int, n: int) -> list[CompressedField]:
    dims = SHAPES[n][1 if dataset == "cesm" else 0]
    arrays = [
        a.ravel() for a in snapshot_series(dataset, k, dims=dims, seed=7)
    ]
    spread = max(float(a.max()) for a in arrays) - min(
        float(a.min()) for a in arrays
    )
    # one at a time: each field's layout is the one its own encoder built
    return [COMP.compress(a, abs_eb=1e-3 * spread) for a in arrays]


def flood_layout_cache() -> None:
    """Push every cached layout out with more signatures than the LRU holds."""
    rng = np.random.default_rng(11)
    for _ in range(plan_module.LAYOUT_CACHE_ENTRIES + 1):
        stream_layout(rng.integers(0, 33, size=24).astype(np.uint8), 32)


def reference_sum(fields: list[CompressedField]) -> bytes:
    """decode -> np.add -> encode with the scalar loops; no layout anywhere."""
    first = fields[0]
    bs, nb = first.block_size, first.code_lengths.size
    total = np.zeros((nb, bs), dtype=np.int64)
    for f in fields:
        deltas = np.zeros((nb, bs), dtype=np.int64)
        _kernels_py.decode_into_loop(
            np.arange(nb),
            f.code_lengths,
            payload_offsets(f.code_lengths, bs),
            f.payload,
            deltas,
            np.empty(bs, dtype=np.uint8),
        )
        np.add(total, deltas, out=total)
    lens = np.empty(nb, dtype=np.uint8)
    _kernels_py.classify_blocks_loop(total, lens)
    offsets = payload_offsets(lens, bs)
    payload = np.zeros(int(offsets[-1]), dtype=np.uint8)
    _kernels_py.encode_from_deltas_loop(total, lens, offsets, payload)
    return CompressedField(
        n=first.n,
        error_bound=first.error_bound,
        block_size=bs,
        n_threadblocks=first.n_threadblocks,
        outliers=np.add.reduce([f.outliers for f in fields]),
        code_lengths=lens,
        payload=payload,
    ).to_bytes()


@pytest.mark.parametrize("n", sorted(SHAPES))
@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("dataset", DATASETS)
def test_fold_is_the_same_however_the_layout_was_found(dataset, k, n):
    fields = operands(dataset, k, n)
    engine = HZDynamic()
    in_memory = engine.reduce_fused(fields).to_bytes()

    wire = [f.to_bytes() for f in fields]
    off_the_wire = engine.reduce_fused([from_bytes(w) for w in wire]).to_bytes()

    cold = [from_bytes(w) for w in wire]
    for f in cold:  # every operand's layout is built on an emptied cache
        flood_layout_cache()
        f.layout.groups
    flood_layout_cache()  # ... and so is the result's
    evicted = engine.reduce_fused(cold).to_bytes()

    assert in_memory == off_the_wire == evicted
    assert in_memory == reference_sum(fields)


def test_equal_code_lengths_share_a_layout_and_decode_correctly():
    rng = np.random.default_rng(3)
    data = np.cumsum(rng.normal(0, 0.02, 4096)).astype(np.float32)
    data -= data[0]  # outlier 0 either way: the streams differ only in signs
    up, down = COMP.compress(data, abs_eb=1e-4), COMP.compress(-data, abs_eb=1e-4)
    np.testing.assert_array_equal(up.code_lengths, down.code_lengths)
    assert not np.array_equal(up.payload, down.payload)
    assert up.layout is down.layout
    restored_up, restored_down = COMP.decompress([up, down])
    assert np.abs(restored_up - data).max() <= 1.001e-4  # float32 store
    np.testing.assert_array_equal(restored_down, -restored_up)
    # ... and apart, through the wire-side lookup
    for field, want in ((up, restored_up), (down, restored_down)):
        np.testing.assert_array_equal(
            COMP.decompress(from_bytes(field.to_bytes())), want
        )


def test_mis_sized_field_is_refused_before_any_batch_mate_is_decoded(monkeypatch):
    rng = np.random.default_rng(5)
    fields = COMP.compress(
        [rng.normal(0, 1, 700).astype(np.float32) for _ in range(3)], abs_eb=1e-3
    )
    for f in fields:
        f.layout.groups  # layouts at hand: nothing is left to fail early
    decoded = []
    real_decode = fzlight_module.decode_blocks
    monkeypatch.setattr(
        fzlight_module,
        "decode_blocks",
        lambda *a, **kw: decoded.append(1) or real_decode(*a, **kw),
    )
    short = fields[2].copy()
    short.payload = short.payload[:-4]
    with pytest.raises(ValueError, match="payload has"):
        COMP.decompress([fields[0], fields[1], short])
    lost = fields[2].copy()
    lost.code_lengths = lost.code_lengths[:-1]
    with pytest.raises(ValueError, match="code_lengths has"):
        COMP.decompress([fields[0], fields[1], lost])
    assert decoded == []
    COMP.decompress(fields)
    assert decoded == [1]


def test_layouts_built_from_pool_threads_are_consistent():
    """Sweeps run concurrently on threads (the aggregation service runs
    each batch in a worker thread): concurrent lookups and builds, one
    answer."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(8)
    data = [
        np.cumsum(rng.normal(0, 0.02, 1 << 15)).astype(np.float32) for _ in range(4)
    ]
    comp = FZLight(block_size=32, n_threadblocks=18)
    want_fields = [f.to_bytes() for f in comp.compress(data, abs_eb=1e-4)]
    fields = comp.compress(data, abs_eb=1e-4)
    want_arrays = [comp.decompress(f) for f in fields]

    def sweep(i: int):
        if i % 3 == 0:
            flood_layout_cache()
        if i % 2:
            return i, [f.to_bytes() for f in comp.compress(data, abs_eb=1e-4)]
        return i, comp.decompress(fields)

    with ThreadPoolExecutor(max_workers=4) as pool:
        for i, got in pool.map(sweep, range(12), timeout=120):
            if i % 2:
                assert got == want_fields
            else:
                for mine, theirs in zip(got, want_arrays):
                    np.testing.assert_array_equal(mine, theirs)
    # More threads than cores, switching as often as the interpreter allows,
    # asking for a few signatures that keep falling out of a flooded cache:
    # every answer describes its stream, and the cache's byte count is still
    # the sum of what it holds (a lost update would leave it off).

    signatures = [rng.integers(0, 12, size=256).astype(np.uint8) for _ in range(6)]
    want = [
        [(g.c, g.ng, g.lo) for g in plan_module.StreamLayout(lens, 32).groups]
        for lens in signatures
    ]

    def ask(i: int):
        if i % 7 == 0:
            flood_layout_cache()
        layout = stream_layout(signatures[i % 6], 32)
        return i % 6, [(g.c, g.ng, g.lo) for g in layout.groups]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(ask, range(96), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(answers) == 96
    assert all(groups == want[which] for which, groups in answers)
    assert len(plan_module._cache) <= plan_module.LAYOUT_CACHE_ENTRIES
    assert plan_module._cache_bytes == sum(
        entry.footprint for entry in plan_module._cache.values()
    )
