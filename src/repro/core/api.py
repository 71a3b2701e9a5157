"""The hZCCL public facade.

One object wires together the compressor, the homomorphic engine, the
simulated cluster, and the three collective families:

>>> import numpy as np
>>> from repro import HZCCL
>>> lib = HZCCL()
>>> data = [np.sin(np.linspace(0, 9, 4096) + r).astype(np.float32)
...         for r in range(4)]
>>> result = lib.allreduce(data)          # homomorphic-compressed ring
>>> baseline = lib.allreduce(data, kernel="mpi")
>>> result.outputs[0].shape == baseline.outputs[0].shape
True
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..collectives import CollectiveResult
from ..collectives.base import validate_local_data
from ..compression.format import CompressedField
from ..compression.fzlight import FZLight
from ..homomorphic.hzdynamic import HZDynamic
from ..runtime.nodemap import NodeMap
from ..schedule.tuner import classify_roughness
from .config import CollectiveConfig
from .pipeline import CollectiveRequest, PayloadSpec, execute, plan

__all__ = ["HZCCL"]


class HZCCL:
    """High-level entry point for homomorphic-compressed collectives.

    Parameters
    ----------
    config : collective/testbed configuration; defaults to the paper's
        setup (abs eb 1e-4, 18 compression thread-blocks, Omni-Path model).
    trace : attach a :class:`TraceLog` to every simulated cluster so each
        :class:`CollectiveResult` carries its own scoped trace (``.trace``)
        ready for the :mod:`repro.obs` exporters.  Off by default — the
        disabled path adds no per-charge work.
    """

    def __init__(
        self, config: CollectiveConfig | None = None, trace: bool = False
    ) -> None:
        self.config = config or CollectiveConfig()
        self.trace = trace
        self._compressor = FZLight(
            block_size=self.config.block_size,
            n_threadblocks=self.config.n_threadblocks,
        )
        self._engine = HZDynamic()

    # ------------------------------------------------------------------ #
    # compression surface
    # ------------------------------------------------------------------ #
    def compress(
        self,
        data: np.ndarray | Sequence[np.ndarray],
        abs_eb: float | None = None,
        rel_eb: float | None = None,
    ) -> CompressedField | list[CompressedField]:
        """fZ-light compression (defaults to the config's error bound).

        A list/tuple of arrays is compressed in one kernel sweep and comes
        back as a list of fields, each byte-identical to a lone call.
        """
        if abs_eb is None and rel_eb is None:
            abs_eb = self.config.error_bound
        return self._compressor.compress(data, abs_eb=abs_eb, rel_eb=rel_eb)

    def decompress(
        self, compressed: CompressedField | Sequence[CompressedField]
    ) -> np.ndarray | list[np.ndarray]:
        """fZ-light decompression (a sequence of fields → a list of arrays)."""
        return self._compressor.decompress(compressed)

    def homomorphic_sum(
        self, a: CompressedField, b: CompressedField
    ) -> CompressedField:
        """hZ-dynamic reduction directly on two compressed fields."""
        return self._engine.add(a, b)

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def _run(self, request: CollectiveRequest, data) -> CollectiveResult:
        """plan → execute with this facade's config/trace settings."""
        return execute(
            plan(request, self.config), data,
            config=self.config, trace=self.trace,
        )

    def _tuned_request(
        self, op: str, arrays: list[np.ndarray], **extra
    ) -> CollectiveRequest:
        """Build a ``tune=True`` request keyed on the actual data."""
        return CollectiveRequest(
            op=op,
            n_ranks=len(arrays),
            payload=PayloadSpec.of(arrays[0]),
            tune=True,
            roughness=classify_roughness(arrays[0], self.config.error_bound),
            **extra,
        )

    def reduce_scatter(
        self, local_data: list[np.ndarray], kernel: str = "hzccl"
    ) -> CollectiveResult:
        """SUM Reduce_scatter across ``len(local_data)`` simulated ranks."""
        return self._run(
            CollectiveRequest(
                op="reduce_scatter", n_ranks=len(local_data), kernel=kernel
            ),
            local_data,
        )

    def allreduce(
        self,
        local_data: list[np.ndarray],
        kernel: str = "hzccl",
        nodemap: "NodeMap | None" = None,
        inter: str | None = None,
        tune: bool = False,
    ) -> CollectiveResult:
        """SUM Allreduce across ``len(local_data)`` simulated ranks.

        Passing a :class:`~repro.runtime.NodeMap` switches the ``hzccl``
        and ``mpi`` kernels to the two-level hierarchical schedule
        (per-node binomial trees around an inter-node stage over one
        leader per node).  ``inter`` picks the inter-node family
        (``"ring"`` / ``"rabenseifner"``); ``None`` lets
        :func:`~repro.schedule.select_inter_family` read the configured
        fabric.

        ``tune=True`` hands family selection to the schedule autotuner
        (DESIGN.md §13): the pick comes from the persisted tuning table
        (``config.tuning_table_path`` / ``$REPRO_TUNING_TABLE``) or live
        candidate enumeration, keyed on message size, rank count, fabric,
        and the data's measured roughness; ``kernel`` and ``inter`` are
        ignored, ``nodemap`` enables the hierarchical candidates.
        """
        if tune:
            arrays = validate_local_data(local_data)
            return self._run(
                self._tuned_request("allreduce", arrays, nodemap=nodemap),
                arrays,
            )
        return self._run(
            CollectiveRequest(
                op="allreduce",
                n_ranks=len(local_data),
                kernel=kernel,
                nodemap=nodemap,
                inter=inter,
            ),
            local_data,
        )

    def reduce(
        self,
        local_data: list[np.ndarray],
        root: int = 0,
        kernel: str = "hzccl",
        tune: bool = False,
    ) -> CollectiveResult:
        """SUM Reduce to ``root`` (non-root outputs are ``None``).

        ``hzccl`` runs the ring Reduce_scatter + compressed gather;
        ``hzccl-direct`` gathers whole compressed vectors and folds them at
        the root with one fused k-way homomorphic reduction (best at
        small/medium rank counts); ``mpi`` is the plain baseline.
        ``tune=True`` asks the autotuner instead (``kernel`` is ignored).
        """
        if tune:
            arrays = validate_local_data(local_data)
            return self._run(
                self._tuned_request("reduce", arrays, root=root), arrays
            )
        return self._run(
            CollectiveRequest(
                op="reduce", n_ranks=len(local_data), kernel=kernel, root=root
            ),
            local_data,
        )

    def bcast(
        self,
        data: np.ndarray,
        n_ranks: int,
        root: int = 0,
        kernel: str = "hzccl",
        tune: bool = False,
    ) -> CollectiveResult:
        """Broadcast ``data`` from ``root`` to ``n_ranks`` simulated ranks.

        The ``hzccl`` kernel broadcasts the compressed stream (lossy within
        the configured error bound on non-root ranks); ``mpi`` is exact.
        ``tune=True`` asks the autotuner instead (``kernel`` is ignored).
        """
        if tune:
            array = np.ascontiguousarray(data)
            request = CollectiveRequest(
                op="bcast",
                n_ranks=n_ranks,
                payload=PayloadSpec.of(array),
                root=root,
                tune=True,
                roughness=classify_roughness(array, self.config.error_bound),
            )
            return self._run(request, array)
        return self._run(
            CollectiveRequest(
                op="bcast", n_ranks=n_ranks, kernel=kernel, root=root
            ),
            data,
        )

    def batched_reduce(
        self, batch: list[list[np.ndarray]], root: int = 0
    ) -> CollectiveResult:
        """Fused SUM Reduce of several same-shaped sessions in one pass.

        ``batch[s][i]`` is session ``s``'s contribution on rank ``i``.
        Every rank compresses each session vector once, the root folds
        each session with one fused k-way homomorphic reduction, and
        ``outputs[s]`` is session ``s``'s reduced vector — bit-identical
        to ``len(batch)`` independent ``reduce`` calls (the aggregation
        service's coalescing path).
        """
        if not batch:
            raise ValueError("batched_reduce needs at least one session")
        first = validate_local_data(batch[0])
        request = CollectiveRequest(
            op="batched-reduce",
            n_ranks=len(first),
            payload=PayloadSpec.of(first[0]),
            root=root,
            sessions=len(batch),
        )
        return self._run(request, batch)
