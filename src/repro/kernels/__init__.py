"""Pluggable fixed-length kernel backends for the compression hot path.

Public surface:

* :mod:`repro.kernels.dispatch` — backend registry, resolution policy
  (explicit override > ``REPRO_KERNEL_BACKEND`` env var > auto), and the
  :func:`use_backend` scoping context manager;
* :mod:`repro.kernels.plan` — the shared argsort-based
  :class:`~repro.kernels.plan.GroupingPlan`, payload geometry, and the
  per-signature :class:`~repro.kernels.plan.StreamLayout` the grouped
  kernels walk (:func:`~repro.kernels.plan.stream_layout`);
* :mod:`repro.kernels.arena` — the thread-local scratch-buffer arena.

The stable entry point for callers is still
:mod:`repro.compression.encoding`; it forwards every call to the active
backend.  All backends emit byte-identical streams.
"""

from .arena import ScratchArena, get_arena
from .dispatch import (
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
from .plan import (
    GroupingPlan,
    StreamLayout,
    block_payload_nbytes,
    payload_offsets,
    required_bits,
    stream_layout,
)

__all__ = [
    "ENV_VAR",
    "GroupingPlan",
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
    "set_backend",
    "stream_layout",
    "use_backend",
]
