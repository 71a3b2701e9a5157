"""Backend registry/dispatch: the four-kernel contract, the one selection
rule (auto unless inside a ``use_backend`` scope), fallback, scoping."""

import dataclasses
import sys
import threading
import types

import numpy as np
import pytest

from repro.kernels import dispatch
from repro.kernels.dispatch import (
    KernelBackend,
    available_backends,
    backend_status,
    current_backend_name,
    get_backend,
    register_backend,
    use_backend,
)

KERNELS = ("encode_with_offsets", "decode_blocks", "decode_selected", "reduce_fused")


@pytest.fixture(autouse=True)
def fresh_dispatch():
    """Each test drives discovery from scratch and leaves no scope."""
    dispatch._reset_for_tests()
    yield
    dispatch._reset_for_tests()


def _copy_of(backend: KernelBackend, name: str) -> KernelBackend:
    return dataclasses.replace(backend, name=name)


class TestContract:
    def test_kernel_fields_are_the_four_names(self):
        names = [f.name for f in dataclasses.fields(KernelBackend)]
        assert names == ["name", *KERNELS]

    def test_module_missing_an_entry_is_unavailable(self, monkeypatch):
        """A backend module without one of the four kernels is reported,
        not patched up, and auto skips it."""
        from repro.kernels import numpy_backend

        partial = types.ModuleType("partial_backend")
        partial.NAME = "partial"
        for kernel in KERNELS[:-1]:
            setattr(partial, kernel, getattr(numpy_backend, kernel))
        monkeypatch.setitem(sys.modules, "partial_backend", partial)
        monkeypatch.setattr(
            dispatch,
            "_BUILTIN_MODULES",
            {"partial": "partial_backend", **dispatch._BUILTIN_MODULES},
        )
        status = backend_status()
        assert "reduce_fused" in status["partial"]
        assert "partial" not in available_backends()
        assert current_backend_name() in ("numba", "numpy")
        with pytest.raises(ValueError, match="reduce_fused"):
            get_backend("partial")


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

    def test_cupy_is_never_auto_selected(self):
        # a registered backend is reachable by name only, never by auto
        register_backend(_copy_of(get_backend("numpy"), "cupy"))
        assert current_backend_name() in ("numba", "numpy")


class TestNumbaAbsentFallback:
    def test_auto_falls_back_to_numpy_when_numba_hidden(self, monkeypatch):
        """Hide the import, nothing breaks."""
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
    def test_environment_does_not_pick_the_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "nonexistent")
        assert get_backend() is get_backend("auto")

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            get_backend("not-a-backend")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with use_backend("not-a-backend"):
                pass

    def test_use_backend_scopes_and_restores(self):
        before = current_backend_name()
        with use_backend("numpy") as backend:
            assert backend.name == "numpy"
            assert current_backend_name() == "numpy"
        assert current_backend_name() == before

    def test_use_backend_none_defers_to_ambient(self):
        with use_backend(None):
            assert current_backend_name() in available_backends()

    def test_use_backend_nesting_is_per_thread(self):
        register_backend(_copy_of(get_backend("numpy"), "outer"))
        register_backend(_copy_of(get_backend("numpy"), "inner"))
        seen = {}

        def other_thread():
            seen["other"] = current_backend_name()
            with use_backend("inner"):
                seen["other_scoped"] = current_backend_name()

        with use_backend("outer"):
            with use_backend("inner"):
                assert current_backend_name() == "inner"
                worker = threading.Thread(target=other_thread)
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive()
            assert current_backend_name() == "outer"
        assert current_backend_name() in ("numba", "numpy")
        assert seen == {
            "other": current_backend_name(),
            "other_scoped": "inner",
        }


class TestRegistry:
    def test_register_custom_backend(self):
        custom = _copy_of(get_backend("numpy"), "custom")
        register_backend(custom)
        assert "custom" in available_backends()
        assert get_backend("custom") is custom

    def test_every_resolved_backend_has_full_surface(self):
        for name in available_backends():
            backend = get_backend(name)
            for kernel in KERNELS:
                assert callable(getattr(backend, kernel)), (name, kernel)
