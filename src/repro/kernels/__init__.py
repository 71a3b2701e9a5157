"""Fixed-length kernel backends for the compression hot path.

Public surface:

* :mod:`repro.kernels.dispatch` — the backend registry: a backend is the
  four kernels ``encode_with_offsets``, ``decode_blocks``,
  ``decode_selected`` and ``reduce_fused``, and the one that runs is
  ``numba`` if it imports, else ``numpy``, unless the calling thread is
  inside a :func:`use_backend` scope;
* :mod:`repro.kernels.plan` — payload geometry and the per-signature
  :class:`~repro.kernels.plan.StreamLayout` the grouped kernels walk
  (:func:`~repro.kernels.plan.stream_layout`);
* :mod:`repro.kernels.arena` — the thread-local scratch-buffer arena.

The stable entry point for callers is still
:mod:`repro.compression.encoding`; it forwards every call to the active
backend.  All backends emit byte-identical streams.
"""

from .arena import ScratchArena, get_arena
from .dispatch import (
    KernelBackend,
    available_backends,
    backend_status,
    current_backend_name,
    get_backend,
    register_backend,
    use_backend,
)
from .plan import (
    StreamLayout,
    block_payload_nbytes,
    payload_offsets,
    required_bits,
    stream_layout,
)

__all__ = [
    "KernelBackend",
    "ScratchArena",
    "StreamLayout",
    "available_backends",
    "backend_status",
    "block_payload_nbytes",
    "current_backend_name",
    "get_arena",
    "get_backend",
    "payload_offsets",
    "register_backend",
    "required_bits",
    "stream_layout",
    "use_backend",
]
