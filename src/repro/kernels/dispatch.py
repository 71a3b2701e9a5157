"""Kernel backend registry and dispatch.

A *backend* is a named bundle of exactly four fixed-length kernels, the
ones :mod:`repro.compression.encoding` and the homomorphic engine call:

``encode_with_offsets`` (classify + encode, returning the payload
offsets), ``decode_blocks`` (takes an optional ``layout=``),
``decode_selected`` and ``reduce_fused`` (the k-way homomorphic
accumulate, takes an optional ``layouts=``).  The layouts are the
streams' :class:`~repro.kernels.plan.StreamLayout`, when the caller holds
them: the grouped NumPy kernels walk them, the Numba kernels ignore them.

Two backends ship with the repo:

* ``numpy`` — the vectorised reference (always available);
* ``numba`` — fused parallel JIT kernels, available only when the
  optional ``numba`` package is installed (``pip install repro[perf]``).

A backend module that fails to import, or lacks one of the four kernels,
is reported unavailable by :func:`backend_status`.  Any other backend (a
device port, a test double) joins through :func:`register_backend`.

One selection rule: the calling thread's innermost :func:`use_backend`
scope if it is inside one (benchmarks and tests compare backends that
way), else ``auto`` — ``numba`` if it imported, else ``numpy``.  Backends
emit **byte-identical** streams — the homomorphic operators and the
CRC-validated wire format depend on it — so the choice is purely one of
speed and ranks are free to disagree on it.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..obs.metrics import METRICS

__all__ = [
    "KernelBackend",
    "register_backend",
    "available_backends",
    "backend_status",
    "get_backend",
    "current_backend_name",
    "use_backend",
]

#: Module paths probed for the built-in backends, in "auto" preference order.
_BUILTIN_MODULES = {
    "numba": "repro.kernels.numba_backend",
    "numpy": "repro.kernels.numpy_backend",
}


@dataclass(frozen=True)
class KernelBackend:
    """The four kernels every backend provides, under one name."""

    name: str
    encode_with_offsets: Callable = field(repr=False)
    decode_blocks: Callable = field(repr=False)
    decode_selected: Callable = field(repr=False)
    reduce_fused: Callable = field(repr=False)

    @classmethod
    def from_module(cls, module) -> "KernelBackend":
        """The backend a module defines; ``AttributeError`` if it lacks a
        kernel."""
        return cls(
            module.NAME,
            module.encode_with_offsets,
            module.decode_blocks,
            module.decode_selected,
            module.reduce_fused,
        )


class _Scopes(threading.local):
    """The calling thread's :func:`use_backend` stack (innermost last)."""

    def __init__(self) -> None:
        self.stack: list[KernelBackend] = []


_lock = threading.RLock()
_registry: dict[str, KernelBackend] = {}
_load_errors: dict[str, str] = {}
_auto: KernelBackend | None = None  # set by the probe
_scopes = _Scopes()


def _probe_builtins() -> None:
    global _auto
    if _auto is not None:
        return
    with _lock:
        if _auto is not None:
            return
        for name, modpath in _BUILTIN_MODULES.items():
            if name in _registry:
                continue
            try:
                module = importlib.import_module(modpath)
                _registry[name] = KernelBackend.from_module(module)
            except (ImportError, AttributeError) as exc:
                _load_errors[name] = str(exc)
        _auto = next(
            (_registry[n] for n in _BUILTIN_MODULES if n in _registry), None
        )
        if _auto is None:
            raise RuntimeError("no kernel backends available")


def register_backend(backend: KernelBackend) -> None:
    """Register (or replace) a backend under ``backend.name``."""
    with _lock:
        _registry[backend.name] = backend
        _load_errors.pop(backend.name, None)
        _instrumented_cache.pop(backend.name, None)


def available_backends() -> tuple[str, ...]:
    """Names of backends that loaded successfully."""
    _probe_builtins()
    return tuple(sorted(_registry))


def backend_status() -> dict[str, str]:
    """Per-backend availability: ``"ok"`` or why it is unavailable."""
    _probe_builtins()
    status = {name: "ok" for name in _registry}
    status.update(_load_errors)
    return dict(sorted(status.items()))


def _resolve(name: str | None) -> KernelBackend:
    """The backend ``name`` names (``None``/``"auto"``: the auto pick)."""
    _probe_builtins()
    if name is None or name == "auto":
        return _auto
    backend = _registry.get(name)
    if backend is None:
        detail = _load_errors.get(name)
        hint = f" ({detail})" if detail else ""
        raise ValueError(
            f"unknown kernel backend {name!r}{hint}; "
            f"available: {', '.join(available_backends())}"
        )
    return backend


def get_backend(name: str | None = None) -> KernelBackend:
    """The backend the calling thread dispatches to, or the one ``name``
    names.

    Unscoped, it is one thread-local read.  When the process-wide metrics
    registry is enabled the backend is swapped for a cached instrumented
    twin that reports per-call counts and GB/s histograms
    (``kernel.<backend>.<op>.*``).
    """
    if name is None:
        stack = _scopes.stack
        backend = stack[-1] if stack else _auto or _resolve(None)
    else:
        backend = _resolve(name)
    if METRICS.enabled:
        return _instrumented(backend)
    return backend


_instrumented_cache: dict[str, KernelBackend] = {}


def _instrumented(backend: KernelBackend) -> KernelBackend:
    """A twin of ``backend`` whose kernels report metrics per call.

    Throughput uses the stack-wide byte convention: logical float32 bytes
    of the blocks touched (``n_blocks × block_size × 4``), matching the
    ``repro bench-kernels`` harness, so registry histograms are directly
    comparable with committed bench baselines.
    """
    cached = _instrumented_cache.get(backend.name)
    if cached is not None:
        return cached

    def wrap(fn: Callable, op: str, nbytes_of: Callable) -> Callable:
        calls_key = f"kernel.{backend.name}.{op}.calls"
        gbps_key = f"kernel.{backend.name}.{op}.gbps"

        def call(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            METRICS.inc(calls_key)
            if elapsed > 0.0:
                METRICS.observe(
                    gbps_key, nbytes_of(*args, **kwargs) / elapsed / 1e9
                )
            return out

        return call

    twin = KernelBackend(
        name=backend.name,
        encode_with_offsets=wrap(
            backend.encode_with_offsets,
            "encode",
            lambda deltas, block_size, **kw: deltas.size * 4,
        ),
        decode_blocks=wrap(
            backend.decode_blocks,
            "decode",
            lambda code_lengths, payload, block_size, **kw: (
                len(code_lengths) * block_size * 4
            ),
        ),
        decode_selected=wrap(
            backend.decode_selected,
            "decode_selected",
            lambda indices, code_lengths, offsets, payload, block_size, **kw: (
                len(indices) * block_size * 4
            ),
        ),
        reduce_fused=wrap(
            backend.reduce_fused,
            "reduce_fused",
            lambda lens_mat, offs_mat, payloads, weights, block_size, **kw: (
                lens_mat.shape[0] * lens_mat.shape[1] * block_size * 4
            ),
        ),
    )
    _instrumented_cache[backend.name] = twin
    return twin


def current_backend_name() -> str:
    """The name the next kernel call would dispatch to."""
    return get_backend().name


@contextmanager
def use_backend(name: str | None) -> Iterator[KernelBackend]:
    """Dispatch the calling thread's kernel calls to ``name`` inside the
    block (``None``/``"auto"``: the auto pick)."""
    stack = _scopes.stack
    stack.append(_resolve(name))
    try:
        yield get_backend()
    finally:
        stack.pop()


def _reset_for_tests() -> None:
    """Forget every probe and registration so tests can re-drive discovery."""
    global _auto
    with _lock:
        _registry.clear()
        _load_errors.clear()
        _instrumented_cache.clear()
        _auto = None
    _scopes.stack.clear()
