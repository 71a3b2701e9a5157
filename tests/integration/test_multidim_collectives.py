"""Integration: homomorphic collectives over 2-D/3-D-compressed operands.

The collectives flatten inputs (1-D Lorenzo), but users can also reduce
N-D-compressed fields directly through the engine — these tests exercise
that path end to end on dataset-shaped volumes, including a hand-rolled
ring reduction over 3-D streams.
"""

import numpy as np
import pytest

from repro.compression import FZLightND
from repro.compression.common import dequantize, quantize
from repro.core.analysis import error_bounds
from repro.datasets import snapshot_series
from repro.homomorphic import HZDynamic
from repro.runtime.topology import Ring


class TestVolumeReduction:
    def test_ring_style_reduction_over_3d_streams(self):
        """Fold N 3-D-compressed snapshots in ring order; compare with the
        integer-domain oracle over the whole volume."""
        n = 4
        volumes = snapshot_series("hurricane", n, scale=0.004, seed=6)
        eb = 1e-3 * float(volumes[0].max() - volumes[0].min())
        comp = FZLightND()
        engine = HZDynamic()
        fields = [comp.compress(v, abs_eb=eb) for v in volumes]

        ring = Ring(n)
        acc = fields[0]
        for j in range(1, n):
            acc = engine.add(acc, fields[j])

        oracle = dequantize(
            sum(quantize(v.ravel(), eb).astype(np.int64) for v in volumes), eb
        ).reshape(volumes[0].shape)
        np.testing.assert_array_equal(comp.decompress(acc), oracle)
        assert ring.n == n  # topology helper stays consistent

    def test_tree_reduction_matches_ring_order(self):
        n = 5
        volumes = snapshot_series("nyx", n, scale=0.002, seed=8)
        eb = 1e-3 * float(volumes[0].max() - volumes[0].min())
        comp = FZLightND()
        engine = HZDynamic()
        fields = [comp.compress(v, abs_eb=eb) for v in volumes]
        seq = engine.reduce(list(fields), order="sequential")
        tree = engine.reduce(list(fields), order="tree")
        assert seq.to_bytes() == tree.to_bytes()

    def test_mean_of_volumes(self):
        from repro.homomorphic import mean_of

        n = 3
        volumes = snapshot_series("sim2", n, scale=0.004, seed=4)
        eb = 1e-3 * float(volumes[0].max() - volumes[0].min())
        comp = FZLightND()
        fields = [comp.compress(v, abs_eb=eb) for v in volumes]
        # mean_of decodes through the generic 1-D path, which is only valid
        # for 1-D streams — the N-D mean goes through decompress + divide
        total = HZDynamic().reduce(list(fields))
        mean = comp.decompress(total) / n
        float_mean = np.mean(np.stack(volumes).astype(np.float64), axis=0)
        assert np.abs(mean - float_mean).max() <= eb * 1.001

    def test_error_bound_after_reduction(self):
        n = 6
        volumes = snapshot_series("sim1", n, scale=0.004, seed=2)
        eb = 1e-4 * float(volumes[0].max() - volumes[0].min())
        comp = FZLightND()
        engine = HZDynamic()
        total = engine.reduce([comp.compress(v, abs_eb=eb) for v in volumes])
        exact = np.sum(np.stack(volumes).astype(np.float64), axis=0)
        err = np.abs(comp.decompress(total).astype(np.float64) - exact).max()
        assert err <= error_bounds(n, eb, "hzccl").max_error * 1.001

    def test_pipeline_mix_reported_for_volumes(self):
        volumes = snapshot_series("sim1", 2, scale=0.004, seed=2)
        eb = 1e-3 * float(volumes[0].max() - volumes[0].min())
        comp = FZLightND()
        engine = HZDynamic()
        engine.add(comp.compress(volumes[1], abs_eb=eb), comp.compress(volumes[0], abs_eb=eb))
        assert engine.stats.total > 0
        assert engine.stats.percentages.sum() == pytest.approx(100.0)
