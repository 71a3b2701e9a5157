"""Tests for the image-stacking application (§IV-E)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.image_stacking import make_exposures, make_scene, stack_images
from repro.core.config import CollectiveConfig
from repro.runtime import FaultPlan

SHAPE = (64, 64)


@pytest.fixture()
def config(fast_network):
    return CollectiveConfig(error_bound=1e-4, network=fast_network)


@pytest.fixture()
def exposures():
    _, exp = make_exposures(6, shape=SHAPE, seed=11)
    return exp


class TestSceneGeneration:
    def test_scene_shape_and_dtype(self):
        scene = make_scene(SHAPE, seed=1)
        assert scene.shape == SHAPE
        assert scene.dtype == np.float32

    def test_scene_deterministic(self):
        np.testing.assert_array_equal(make_scene(SHAPE, seed=2), make_scene(SHAPE, seed=2))

    def test_scene_nonnegative_background(self):
        assert make_scene(SHAPE, seed=1).min() > 0

    def test_exposures_are_noisy_scene(self):
        scene, exp = make_exposures(3, shape=SHAPE, noise_sigma=1.0, seed=4)
        assert len(exp) == 3
        for e in exp:
            resid = e - scene
            assert 0.5 < resid.std() < 2.0

    def test_exposures_independent(self):
        _, exp = make_exposures(2, shape=SHAPE, seed=4)
        assert not np.array_equal(exp[0], exp[1])


class TestStacking:
    def test_stacking_reduces_noise(self, exposures):
        scene, exp = make_exposures(8, shape=SHAPE, noise_sigma=4.0, seed=11)
        stacked = stack_images(exp, "mpi").stacked
        single_err = np.abs(exp[0] - scene).std()
        stacked_err = np.abs(stacked - scene).std()
        assert stacked_err < single_err / 2  # ~1/sqrt(8)

    @pytest.mark.parametrize("method", ["mpi", "ccoll", "hzccl"])
    def test_all_methods_run(self, exposures, config, method):
        res = stack_images(exposures, method, config)
        assert res.stacked.shape == SHAPE
        assert res.method == method
        assert res.total_time > 0

    def test_hzccl_accuracy_vs_mpi(self, exposures, config):
        ref = stack_images(exposures, "mpi", config)
        hz = stack_images(exposures, "hzccl", config, reference=ref.stacked)
        # paper: PSNR 62 dB at eb 1e-4 on real data; synthetic scene with
        # the same bound should clear 60 dB comfortably
        assert hz.psnr > 60
        assert hz.nrmse < 1e-2

    def test_quality_metrics_absent_without_reference(self, exposures, config):
        res = stack_images(exposures, "hzccl", config)
        assert res.psnr == float("inf")
        assert res.nrmse == 0.0

    def test_compressed_methods_send_fewer_bytes(self, exposures, fast_network):
        # The paper's 1e-4 bound applies to O(1)-range fields; our scene
        # spans O(100), so the equivalent bound is 1e-2 — tight enough for
        # 60+ dB stacks, loose enough that compression actually shrinks the
        # photon noise instead of encoding it losslessly.
        config = CollectiveConfig(error_bound=1e-2, network=fast_network)
        mpi = stack_images(exposures, "mpi", config)
        hz = stack_images(exposures, "hzccl", config)
        assert hz.bytes_on_wire < mpi.bytes_on_wire

    def test_breakdown_buckets(self, exposures, config):
        hz = stack_images(exposures, "hzccl", config)
        assert hz.breakdown.buckets["HPR"] > 0
        cc = stack_images(exposures, "ccoll", config)
        assert cc.breakdown.buckets["HPR"] == 0

    def test_config_fault_plan_is_honoured(self, exposures, config):
        """Every compressed stream lost: the hzccl stack degrades to the
        plain ring — the exact MPI stack, with the failed attempts'
        wire billed on top."""
        faulted = replace(config, fault_plan=FaultPlan(seed=1, corrupt_rate=1.0))
        mpi = stack_images(exposures, "mpi", config)
        hz = stack_images(exposures, "hzccl", faulted)
        np.testing.assert_array_equal(hz.stacked, mpi.stacked)
        assert hz.bytes_on_wire > mpi.bytes_on_wire

    def test_rejects_unknown_method(self, exposures):
        with pytest.raises(ValueError, match="method"):
            stack_images(exposures, "gossip")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="exposure"):
            stack_images([])
