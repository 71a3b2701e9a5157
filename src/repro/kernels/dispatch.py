"""Kernel backend registry and dispatch.

A *backend* is a named bundle of the fixed-length kernels the rest of the
stack calls through :mod:`repro.compression.encoding` and the homomorphic
engine:

``encode_blocks`` / ``encode_with_offsets`` / ``decode_blocks`` /
``decode_selected`` plus the fused entry points ``classify_encode``
(single-pass classification + encode) and ``reduce_fused`` (k-way
homomorphic accumulate).  The fused entry points are optional in a
backend module — when absent the registry installs fallbacks built from
the backend's own kernels, so every resolved :class:`KernelBackend`
carries the full surface.  ``decode_blocks`` takes an optional
``layout=`` and ``reduce_fused`` an optional ``layouts=`` (the streams'
:class:`~repro.kernels.plan.StreamLayout`, when the caller holds them):
the grouped NumPy kernels walk them, a backend with no use for them
accepts and ignores them.

Two backends ship with the repo:

* ``numpy`` — the reworked vectorised reference (always available);
* ``numba`` — fused parallel JIT kernels, available only when the
  optional ``numba`` package is installed (``pip install repro[perf]``).

Any other backend (a device port, a test double) joins through
:func:`register_backend`; it is never auto-selected.

Resolution order for the active backend:

1. an explicit :func:`set_backend` / :func:`use_backend` call;
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. ``"auto"``: the first built-in that loaded — ``numba`` if
   importable, else ``numpy``.

Backends must emit **byte-identical** streams — the homomorphic operators
and the CRC-validated wire format depend on it — so switching backends is
purely a performance decision and ranks are free to disagree on it.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..obs.metrics import METRICS

__all__ = [
    "ENV_VAR",
    "KernelBackend",
    "register_backend",
    "available_backends",
    "backend_status",
    "get_backend",
    "current_backend_name",
    "set_backend",
    "use_backend",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Module paths probed for the built-in backends, in "auto" preference order.
_BUILTIN_MODULES = {
    "numba": "repro.kernels.numba_backend",
    "numpy": "repro.kernels.numpy_backend",
}


@dataclass(frozen=True)
class KernelBackend:
    """The callable surface every kernel backend provides.

    ``classify_encode`` and ``reduce_fused`` may be omitted when
    constructing a backend by hand (custom/test backends): the former
    defaults to ``encode_with_offsets`` (a fused kernel degrades to the
    two-pass path, never the reverse) and the latter to the reference
    k-way accumulate built from this backend's own ``decode_blocks`` and
    ``classify_encode``.
    """

    name: str
    encode_blocks: Callable = field(repr=False)
    encode_with_offsets: Callable = field(repr=False)
    decode_blocks: Callable = field(repr=False)
    decode_selected: Callable = field(repr=False)
    classify_encode: Callable | None = field(default=None, repr=False)
    reduce_fused: Callable | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.classify_encode is None:
            object.__setattr__(self, "classify_encode", self.encode_with_offsets)
        if self.reduce_fused is None:
            from .numpy_backend import make_reduce_fused

            object.__setattr__(
                self,
                "reduce_fused",
                make_reduce_fused(self.decode_blocks, self.classify_encode),
            )

    @classmethod
    def from_module(cls, module) -> "KernelBackend":
        return cls(
            name=module.NAME,
            encode_blocks=module.encode_blocks,
            encode_with_offsets=module.encode_with_offsets,
            decode_blocks=module.decode_blocks,
            decode_selected=module.decode_selected,
            classify_encode=getattr(module, "classify_encode", None),
            reduce_fused=getattr(module, "reduce_fused", None),
        )


_lock = threading.RLock()
_registry: dict[str, KernelBackend] = {}
_load_errors: dict[str, str] = {}
_probed = False
_override: str | None = None  # set_backend wins over env/auto
_tls = threading.local()  # use_backend() nesting is per-thread


def _probe_builtins() -> None:
    global _probed
    if _probed:
        return
    with _lock:
        if _probed:
            return
        for name, modpath in _BUILTIN_MODULES.items():
            if name in _registry:
                continue
            try:
                module = importlib.import_module(modpath)
            except ImportError as exc:
                _load_errors[name] = str(exc)
                continue
            _registry[name] = KernelBackend.from_module(module)
        _probed = True


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
    """Per-backend availability: ``"ok"`` or the import error message."""
    _probe_builtins()
    status = {name: "ok" for name in _registry}
    status.update(_load_errors)
    return dict(sorted(status.items()))


def _unknown_backend_error(name: str) -> ValueError:
    detail = _load_errors.get(name)
    hint = f" ({detail})" if detail else ""
    return ValueError(
        f"unknown kernel backend {name!r}{hint}; "
        f"available: {', '.join(available_backends()) or 'none'}"
    )


def _resolve_name(name: str | None) -> str:
    if name is None:
        name = getattr(_tls, "stack", None) and _tls.stack[-1] or None
    if name is None:
        name = _override
    if name is None:
        # strip *before* the fallback so a whitespace-only env value means
        # "unset" (auto) rather than the empty backend name
        env = os.environ.get(ENV_VAR)
        name = (env.strip() if env is not None else "") or "auto"
    name = name.strip().lower()
    if name == "auto":
        for candidate in _BUILTIN_MODULES:
            if candidate in _registry:
                return candidate
        raise RuntimeError("no kernel backends available")
    if name not in _registry:
        # surface a clear error naming the alternatives instead of letting
        # the registry lookup escape as a bare KeyError
        raise _unknown_backend_error(name)
    return name


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend by name (``None``/``"auto"`` follow the policy).

    When the process-wide metrics registry is enabled the resolved backend
    is swapped for a cached instrumented twin that reports per-call counts
    and GB/s histograms (``kernel.<backend>.<op>.*``); the disabled path
    returns the raw backend and pays one attribute load.
    """
    if not _probed:
        _probe_builtins()
    backend = None
    if name is None:
        # the innermost use_backend scope holds a resolved name already
        try:
            backend = _registry.get(_tls.stack[-1])
        except (AttributeError, IndexError):
            pass
    if backend is None:
        resolved = _resolve_name(name)
        try:
            backend = _registry[resolved]
        except KeyError:  # pragma: no cover - _resolve_name validates first
            raise _unknown_backend_error(resolved) from None
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
        encode_blocks=wrap(
            backend.encode_blocks,
            "encode",
            lambda deltas, block_size, **kw: deltas.size * 4,
        ),
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
        classify_encode=wrap(
            backend.classify_encode,
            "encode",
            lambda deltas, block_size, **kw: deltas.size * 4,
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


def set_backend(name: str | None) -> None:
    """Process-wide backend override (``None`` restores env/auto policy)."""
    global _override
    _probe_builtins()
    if name is not None:
        get_backend(name)  # validate eagerly
    with _lock:
        _override = name


@contextmanager
def use_backend(name: str | None) -> Iterator[KernelBackend]:
    """Scoped backend selection for the calling thread.

    ``None``/``"auto"`` defer to the ambient policy, so wrapping code in
    ``use_backend(config.kernel_backend)`` is always safe.
    """
    _probe_builtins()
    backend = get_backend(name)
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(backend.name)
    try:
        yield backend
    finally:
        stack.pop()


def _reset_for_tests() -> None:
    """Forget every probe/override so tests can re-drive discovery."""
    global _probed, _override
    with _lock:
        _registry.clear()
        _load_errors.clear()
        _instrumented_cache.clear()
        _probed = False
        _override = None
    _tls.stack = []
