"""Backend registry/dispatch: resolution policy, fallback, scoping."""

import sys

import numpy as np
import pytest

from repro.kernels import dispatch
from repro.kernels.dispatch import (
    ENV_VAR,
    KernelBackend,
    available_backends,
    backend_status,
    current_backend_name,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def fresh_dispatch(monkeypatch):
    """Each test drives discovery from scratch and leaves no override."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    dispatch._reset_for_tests()
    yield
    dispatch._reset_for_tests()


class TestDiscovery:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_status_reports_every_builtin(self):
        status = backend_status()
        assert set(status) >= {"numpy", "numba"}
        assert status["numpy"] == "ok"

    def test_auto_prefers_numba_else_numpy(self):
        name = current_backend_name()
        if "numba" in available_backends():
            assert name == "numba"
        else:
            assert name == "numpy"

    def test_cupy_is_never_auto_selected(self, monkeypatch):
        # even if cupy loaded, "auto" must resolve to numba/numpy only
        monkeypatch.delenv(dispatch.ENV_VAR, raising=False)
        assert current_backend_name() in ("numba", "numpy")


class TestNumbaAbsentFallback:
    def test_auto_falls_back_to_numpy_when_numba_hidden(self, monkeypatch):
        """The acceptance-criteria test: hide the import, nothing breaks."""
        monkeypatch.setitem(sys.modules, "numba", None)  # import -> ImportError
        monkeypatch.delitem(
            sys.modules, "repro.kernels.numba_backend", raising=False
        )
        dispatch._reset_for_tests()
        assert "numba" not in available_backends()
        assert "numba" in backend_status()  # error message recorded
        assert current_backend_name() == "numpy"
        # the whole encode path still works through the fallback
        from repro.compression.encoding import decode_blocks, encode_blocks

        deltas = np.arange(64, dtype=np.int64).reshape(2, 32) - 20
        lens, payload = encode_blocks(deltas, 32)
        np.testing.assert_array_equal(decode_blocks(lens, payload, 32), deltas)

    def test_requesting_hidden_backend_is_explicit_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.delitem(
            sys.modules, "repro.kernels.numba_backend", raising=False
        )
        dispatch._reset_for_tests()
        with pytest.raises(ValueError, match="numba"):
            get_backend("numba")


class TestResolutionPolicy:
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert current_backend_name() == "numpy"

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "nonexistent")
        set_backend("numpy")
        assert current_backend_name() == "numpy"

    def test_set_backend_none_restores_policy(self):
        set_backend("numpy")
        set_backend(None)
        assert current_backend_name() in available_backends()

    def test_set_backend_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("not-a-backend")

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            get_backend("not-a-backend")

    def test_whitespace_only_env_means_auto(self, monkeypatch):
        # regression: "   " used to fall through as the (unknown) empty
        # backend name instead of the auto policy
        monkeypatch.setenv(ENV_VAR, "   ")
        assert current_backend_name() in available_backends()

    def test_env_value_is_stripped(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "  numpy\t")
        assert current_backend_name() == "numpy"

    def test_use_backend_scopes_and_restores(self):
        before = current_backend_name()
        with use_backend("numpy") as backend:
            assert backend.name == "numpy"
            assert current_backend_name() == "numpy"
        assert current_backend_name() == before

    def test_use_backend_none_defers_to_ambient(self):
        with use_backend(None):
            assert current_backend_name() in available_backends()

    def test_use_backend_beats_set_backend_inside_scope(self):
        set_backend("numpy")
        with use_backend("numpy"):
            assert current_backend_name() == "numpy"


class TestRegistry:
    def test_register_custom_backend(self):
        numpy_backend = get_backend("numpy")
        custom = KernelBackend(
            name="custom",
            encode_blocks=numpy_backend.encode_blocks,
            encode_with_offsets=numpy_backend.encode_with_offsets,
            decode_blocks=numpy_backend.decode_blocks,
            decode_selected=numpy_backend.decode_selected,
        )
        register_backend(custom)
        assert "custom" in available_backends()
        assert get_backend("custom") is custom

    def test_custom_backend_gets_fused_fallbacks(self):
        """Omitted fused entry points are filled from the backend's own
        kernels, so HZDynamic can call them unconditionally."""
        numpy_backend = get_backend("numpy")
        custom = KernelBackend(
            name="custom-fallback",
            encode_blocks=numpy_backend.encode_blocks,
            encode_with_offsets=numpy_backend.encode_with_offsets,
            decode_blocks=numpy_backend.decode_blocks,
            decode_selected=numpy_backend.decode_selected,
        )
        assert custom.classify_encode is custom.encode_with_offsets
        deltas = np.arange(64, dtype=np.int64).reshape(2, 32) - 20
        lens, payload, offsets = custom.classify_encode(deltas, 32)
        out = custom.reduce_fused(
            np.stack([lens, lens]),
            np.stack([offsets, offsets]),
            [payload, payload],
            np.ones(2, dtype=np.int64),
            32,
            track=True,
        )
        exp_lens, exp_payload, _ = numpy_backend.encode_with_offsets(
            2 * deltas, 32
        )
        np.testing.assert_array_equal(out[0], exp_lens)
        np.testing.assert_array_equal(out[1], exp_payload)
        assert out[3].shape == (2, 2)

    def test_every_resolved_backend_has_full_surface(self):
        for name in available_backends():
            backend = get_backend(name)
            assert callable(backend.classify_encode), name
            assert callable(backend.reduce_fused), name


class TestConfigAndCLIWiring:
    def test_collective_config_field(self):
        from repro.core.config import CollectiveConfig

        config = CollectiveConfig(kernel_backend="numpy")
        assert config.kernel_backend == "numpy"
        with pytest.raises(ValueError):
            CollectiveConfig(kernel_backend="")

    def test_facade_respects_config_backend(self):
        from repro.core.api import HZCCL
        from repro.core.config import CollectiveConfig

        lib = HZCCL(CollectiveConfig(kernel_backend="numpy"))
        data = np.sin(np.linspace(0, 9, 2048)).astype(np.float32)
        field = lib.compress(data)
        out = lib.decompress(field)
        assert np.max(np.abs(out - data)) <= field.error_bound

    def test_facade_rejects_unknown_backend_on_use(self):
        from repro.core.api import HZCCL
        from repro.core.config import CollectiveConfig

        lib = HZCCL(CollectiveConfig(kernel_backend="not-a-backend"))
        with pytest.raises(ValueError, match="unknown kernel backend"):
            lib.compress(np.zeros(64, dtype=np.float32))

    def test_cli_global_flag(self, capsys):
        from repro.cli import main

        assert main(["--kernel-backend", "numpy", "info"]) == 0
        out = capsys.readouterr().out
        assert "active: numpy" in out
