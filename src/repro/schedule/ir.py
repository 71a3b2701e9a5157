"""Schedule IR: the control-plane description of a collective.

A :class:`Schedule` is a pure, discipline-agnostic description of *who
talks to whom, when, about which blocks* — the communication pattern of
Figure 5 and its relatives, with no payload semantics attached.  The same
ring reduce-scatter schedule executes as the plain MPI baseline, as
C-Coll's per-round DOC workflow, or as hZCCL's homomorphic pipeline purely
by pairing it with a different :class:`~repro.schedule.codecs.PayloadCodec`
— the separation of concerns the paper's co-design is built on.

Vocabulary
----------
* **Block ids** are opaque hashables.  Ring schedules use the integers
  ``0 … n−1`` (the standard block indexing of
  :class:`~repro.runtime.topology.Ring`); the chunk-pipelined generator
  uses ``(block, chunk)`` pairs; the fused rooted reduce uses
  ``("v", session, rank)`` whole-vector ids.
* A :class:`CommOp` moves the listed blocks ``src → dst`` as one
  message and declares what the receiver does with them (``action``).
* A :class:`LocalOp` marks rank-local compute — prepare (pre-schedule
  encode), fold, finalize (decode) — whose concrete meaning (kernel +
  clock bucket) the codec supplies; a per-round encode is the codec's
  ``pack`` of each outgoing comm, never an op of its own.  ``fresh``
  distinguishes a new kernel invocation from the *continuation* of a
  running one: continuations charge no per-invocation overhead in the
  cost model, which is what makes chunk pipelining profitable (a chunked
  compressor launches once per block; a persistent HPR worker team forks
  once per ring round).
* A :class:`Round` is one bulk-synchronous step with a declared clock
  discipline: ``exchange`` rounds close on the largest in-flight message
  (full-duplex concurrent links), ``incast`` rounds serialise per-message
  transfer charges (rooted gathers), ``compute`` rounds close on compute
  alone.  ``overlap=True`` marks rounds whose local ops are software-
  pipelined against the wire time (cost = max, not sum).
* ``Round.concurrency`` declares how many flows actually contend for the
  shared fabric during the round — the congestion-law argument.  ``0``
  (the default) means *all* ``n_ranks`` flows, which is exactly right for
  the flat families where every rank talks every round; hierarchical
  schedules set it per round so that an 8-rank intra-node exchange on a
  1024-rank job is charged 8-way congestion, not 1024-way.
  ``Round.link_scale`` is the bandwidth multiplier of the links the round
  rides (intra-node links are ``NodeMap.intra_scale`` × faster than the
  inter-node fabric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping

__all__ = ["CommOp", "LocalOp", "Round", "Phase", "Schedule"]

#: CommOp.action values: what the receiver does with the payload.
ACTIONS = ("fold", "store", "stage")
#: LocalOp.kind values.
LOCAL_KINDS = (
    "prepare",
    "fold",
    "fold_fused",
    "finalize",
    "finalize_local",
)
#: Round.kind values: the clock discipline closing the round.
ROUND_KINDS = ("exchange", "incast", "compute")


@dataclass(frozen=True)
class CommOp:
    """One scheduled transfer of ``blocks`` from ``src`` to ``dst``, one
    message billed once at its scheduled size (faults add only their
    waits, retransmissions and duplicates).

    ``action``
        ``fold``   — reduce each block into the receiver's partial;
        ``store``  — the receiver keeps the payload (allgather/bcast);
        ``stage``  — the payload is parked; a later ``fold`` LocalOp
        consumes it (the chunk-pipelined ring's deliver-now-fold-later).

    ``fresh=False`` marks the receive-side fold as the continuation of the
    previous sub-round's kernel invocation (chunk pipelining).

    An unrecoverable stream on any comm aborts the whole schedule (the
    executor's single degrade path).
    """

    src: int
    dst: int
    blocks: tuple[Hashable, ...]
    action: str = "fold"
    fresh: bool = True


@dataclass(frozen=True)
class LocalOp:
    """Rank-local compute marker (kernel + bucket come from the codec)."""

    rank: int
    kind: str
    blocks: tuple[Hashable, ...]
    fresh: bool = True
    #: operand count for ``fold_fused`` (the k of the k-way kernel).
    fanin: int = 0
    #: destination state key for ``fold_fused`` output — batched
    #: schedules fuse several independent sessions on one root, each
    #: landing in its own key.
    out: Hashable = "fused"


@dataclass(frozen=True)
class Round:
    """One bulk-synchronous step: packs, transfers, then local ops."""

    kind: str = "exchange"
    comms: tuple[CommOp, ...] = ()
    ops: tuple[LocalOp, ...] = ()
    #: local ops overlap the round's wire time (pipelined sub-rounds).
    overlap: bool = False
    #: concurrent flows contending for the fabric this round; 0 = all
    #: ``n_ranks`` (the flat-collective default).
    concurrency: int = 0
    #: bandwidth multiplier of the links this round rides (> 1 for
    #: intra-node exchanges over faster local links).
    link_scale: float = 1.0

    def flows(self, n_ranks: int) -> int:
        """The congestion-law argument: declared concurrency or all ranks."""
        return self.concurrency if self.concurrency > 0 else n_ranks


@dataclass(frozen=True)
class Phase:
    """A named group of rounds.

    ``slot`` is the *abstract* name (``setup`` / ``exchange`` /
    ``finalize`` / algorithm-specific names like ``halving``); the codec
    maps slots to the user-facing span names (``compress``,
    ``doc-exchange``, …) or to ``None`` to skip the phase entirely for
    disciplines where it is empty (a plain ring has no setup).
    """

    slot: str
    rounds: tuple[Round, ...]


@dataclass(frozen=True)
class Schedule:
    """A complete collective schedule: phases of rounds over block ids.

    ``weights`` maps each block id to its fraction of the collective's
    total payload (used by the cost model's dry run to size messages and
    kernels); ids absent from the mapping default to ``1 / n_ranks``.
    """

    name: str
    n_ranks: int
    phases: tuple[Phase, ...]
    weights: Mapping[Hashable, float] = field(default_factory=dict, hash=False)

    def rounds(self) -> Iterator[Round]:
        for phase in self.phases:
            yield from phase.rounds

    def comms(self) -> Iterator[CommOp]:
        for rnd in self.rounds():
            yield from rnd.comms

    def weight(self, block: Hashable) -> float:
        return self.weights.get(block, 1.0 / self.n_ranks)

    def validate(self) -> "Schedule":
        """Structural sanity checks; returns self for chaining."""
        for rnd in self.rounds():
            if rnd.kind not in ROUND_KINDS:
                raise ValueError(f"unknown round kind {rnd.kind!r}")
            if rnd.concurrency < 0 or rnd.concurrency > self.n_ranks:
                raise ValueError(
                    f"round concurrency {rnd.concurrency} out of range for "
                    f"{self.n_ranks} ranks"
                )
            if rnd.link_scale <= 0:
                raise ValueError(
                    f"round link_scale must be > 0, got {rnd.link_scale}"
                )
            for comm in rnd.comms:
                if comm.action not in ACTIONS:
                    raise ValueError(f"unknown comm action {comm.action!r}")
                for end, label in ((comm.src, "src"), (comm.dst, "dst")):
                    if not 0 <= end < self.n_ranks:
                        raise ValueError(
                            f"comm {label} {end} out of range for "
                            f"{self.n_ranks} ranks"
                        )
            for op in rnd.ops:
                if op.kind not in LOCAL_KINDS:
                    raise ValueError(f"unknown local op kind {op.kind!r}")
                if not 0 <= op.rank < self.n_ranks:
                    raise ValueError(
                        f"op rank {op.rank} out of range for "
                        f"{self.n_ranks} ranks"
                    )
        return self
