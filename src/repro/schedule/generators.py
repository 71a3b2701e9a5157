"""Pure schedule generators: topology in, :class:`Schedule` out.

Each generator is a closed-form description of one communication pattern
— no cluster, no payloads, no kernels.  :class:`~repro.runtime.topology.
Ring` supplies the ring index arithmetic; the Rabenseifner and binomial
trees carry their own.  Generators are cached (schedules are immutable
and discipline-agnostic), so the cost model's dry runs and the functional
executor literally share the same objects.

Block-id conventions
--------------------
* ring / Rabenseifner: integer block index ``0 … n−1``;
* chunk-pipelined ring: ``(block, chunk)`` pairs;
* flat gather: the ring's integer block ids, one owned block per rank;
* fused rooted reduce: ``("v", session, rank)`` whole vectors plus
  ``("f", session)`` for each session's folded result (a single rooted
  reduce is session 0 of a one-session batch);
* broadcast: the single id ``"data"``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Hashable

from ..runtime.fabrics import DragonflyNetwork
from ..runtime.network import NetworkModel
from ..runtime.nodemap import NodeMap
from ..runtime.topology import Ring
from .ir import CommOp, LocalOp, Phase, Round, Schedule

__all__ = [
    "ring_reduce_scatter",
    "ring_allgather",
    "pipelined_ring_reduce_scatter",
    "rabenseifner_allreduce_schedule",
    "rabenseifner_ranges",
    "flat_gather",
    "batched_fused_reduce",
    "binomial_bcast",
    "hierarchical_allreduce_schedule",
    "select_inter_family",
    "INTER_FAMILIES",
]


# --------------------------------------------------------------------- #
# ring
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def ring_reduce_scatter(n: int, finalize: bool = True) -> Schedule:
    """Ring reduce-scatter (Thakur et al. / Patarasuk & Yuan, Figure 5).

    Round ``j``: rank ``i`` sends its partial of block ``(i−j) mod n`` to
    its successor and folds the incoming partial into block
    ``(i−j−1) mod n``; after ``n−1`` rounds rank ``i`` owns block
    ``(i+1) mod n`` fully reduced.  ``finalize=False`` drops the decode
    phase — the fused hand-off the hZCCL allreduce exploits.
    """
    ring = Ring(n)
    setup = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "prepare", (b,)) for i in range(n) for b in range(n)
        ),
    )
    exchange = tuple(
        Round(
            kind="exchange",
            comms=tuple(
                CommOp(
                    src=ring.predecessor(i),
                    dst=i,
                    blocks=(ring.recv_block(i, j),),
                    action="fold",
                )
                for i in range(n)
            ),
        )
        for j in range(n - 1)
    )
    phases = [
        Phase("setup", (setup,)),
        Phase("exchange", exchange),
    ]
    if finalize:
        phases.append(
            Phase(
                "finalize",
                (
                    Round(
                        kind="compute",
                        ops=tuple(
                            LocalOp(i, "finalize", (ring.owned_block(i),))
                            for i in range(n)
                        ),
                    ),
                ),
            )
        )
    return Schedule(
        name=f"ring-reduce-scatter(n={n})", n_ranks=n, phases=tuple(phases)
    ).validate()


def _chunk_ids(block: int, chunks: int) -> tuple[Hashable, ...]:
    if chunks == 1:
        return (block,)
    return tuple((block, c) for c in range(chunks))


@lru_cache(maxsize=None)
def ring_allgather(n: int, chunks: int = 1) -> Schedule:
    """Ring allgather: ``n−1`` forwarding rounds, then one decode pass.

    With ``chunks > 1`` every block travels as a bundle of chunk ids
    ``(block, c)`` — the allgather stage of the chunk-pipelined allreduce.
    """
    ring = Ring(n)
    setup = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "prepare", _chunk_ids(ring.owned_block(i), chunks))
            for i in range(n)
        ),
    )
    forward = tuple(
        Round(
            kind="exchange",
            comms=tuple(
                CommOp(
                    src=ring.predecessor(i),
                    dst=i,
                    blocks=_chunk_ids(
                        ring.allgather_send_block(ring.predecessor(i), j),
                        chunks,
                    ),
                    action="store",
                )
                for i in range(n)
            ),
        )
        for j in range(n - 1)
    )
    decode = Round(
        kind="compute",
        ops=tuple(
            op
            for i in range(n)
            for op in (
                LocalOp(
                    i,
                    "finalize",
                    tuple(
                        cid
                        for k in range(n)
                        if k != ring.owned_block(i)
                        for cid in _chunk_ids(k, chunks)
                    ),
                ),
                LocalOp(
                    i,
                    "finalize_local",
                    _chunk_ids(ring.owned_block(i), chunks),
                ),
            )
        ),
    )
    weights = (
        {}
        if chunks == 1
        else {
            (b, c): 1.0 / (n * chunks) for b in range(n) for c in range(chunks)
        }
    )
    return Schedule(
        name=f"ring-allgather(n={n},chunks={chunks})",
        n_ranks=n,
        phases=(
            Phase("setup", (setup,)),
            Phase("forward", forward),
            Phase("finalize", (decode,)),
        ),
        weights=weights,
    ).validate()


@lru_cache(maxsize=None)
def pipelined_ring_reduce_scatter(
    n: int, n_chunks: int = 2, finalize: bool = True
) -> Schedule:
    """Chunk-pipelined ring reduce-scatter — the schedule the seams buy.

    Every ring round ``j`` is split into ``n_chunks`` sub-rounds over
    chunk ids ``(block, c)``.  Sub-round ``s`` puts chunk ``s`` on the
    wire while the receiver folds the chunk *staged in the previous
    sub-round* — so wire time and homomorphic fold time overlap
    (``Round.overlap=True``), which no monolithic send-then-fold family
    could express.  The lag-one fold of the last chunk of round ``j``
    rides sub-round 0 of round ``j+1``; one trailing drain round folds
    the final chunk.

    Invocation accounting: the chunked compressor launches once per
    block (later chunk encodes are continuations) and the HPR worker
    team forks once per ring round (the first chunk folded per round is
    fresh, the rest are continuations), so pipelining adds *no*
    per-invocation overhead over the monolithic schedule.
    """
    if n_chunks < 2:
        # with one chunk the lag-one fold of round j's block would land
        # after round j+1 already packed that block — no pipeline exists
        raise ValueError("pipelining needs n_chunks >= 2")
    ring = Ring(n)
    setup = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "prepare", ((b, c),), fresh=(c == 0))
            for i in range(n)
            for b in range(n)
            for c in range(n_chunks)
        ),
    )

    def fold_ops(j: int, c: int) -> tuple[LocalOp, ...]:
        return tuple(
            LocalOp(
                i,
                "fold",
                ((ring.recv_block(i, j), c),),
                fresh=(c == 0),
            )
            for i in range(n)
        )

    exchange: list[Round] = []
    for j in range(n - 1):
        for s in range(n_chunks):
            comms = tuple(
                CommOp(
                    src=ring.predecessor(i),
                    dst=i,
                    blocks=((ring.recv_block(i, j), s),),
                    action="stage",
                )
                for i in range(n)
            )
            if s > 0:
                ops = fold_ops(j, s - 1)
            elif j > 0:
                ops = fold_ops(j - 1, n_chunks - 1)
            else:
                ops = ()
            exchange.append(
                Round(kind="exchange", comms=comms, ops=ops, overlap=True)
            )
    drain = Round(kind="compute", ops=fold_ops(n - 2, n_chunks - 1))
    phases = [
        Phase("setup", (setup,)),
        Phase("exchange", tuple(exchange) + (drain,)),
    ]
    if finalize:
        phases.append(
            Phase(
                "finalize",
                (
                    Round(
                        kind="compute",
                        ops=tuple(
                            LocalOp(
                                i,
                                "finalize",
                                _chunk_ids(ring.owned_block(i), n_chunks),
                            )
                            for i in range(n)
                        ),
                    ),
                ),
            )
        )
    weights = {
        (b, c): 1.0 / (n * n_chunks)
        for b in range(n)
        for c in range(n_chunks)
    }
    return Schedule(
        name=f"pipelined-ring-reduce-scatter(n={n},chunks={n_chunks})",
        n_ranks=n,
        phases=tuple(phases),
        weights=weights,
    ).validate()


# --------------------------------------------------------------------- #
# Rabenseifner (recursive halving + doubling)
# --------------------------------------------------------------------- #
def _check_power_of_two(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(
            f"Rabenseifner's algorithm needs a power-of-two rank count, got {n}"
        )
    return n.bit_length() - 1


def rabenseifner_ranges(n: int, rank: int, levels: int):
    """Yield ``(round, partner, keep_range, send_range)`` per halving round.

    At round ``k`` the rank keeps the half of its current block range
    containing its own final segment and sends the other half to its
    partner ``rank XOR n/2^(k+1)``.
    """
    lo, hi = 0, n
    for k in range(levels):
        mid = (lo + hi) // 2
        partner = rank ^ (n >> (k + 1))
        if rank < partner:
            keep, send = (lo, mid), (mid, hi)
        else:
            keep, send = (mid, hi), (lo, mid)
        yield k, partner, keep, send
        lo, hi = keep


@lru_cache(maxsize=None)
def rabenseifner_allreduce_schedule(n: int) -> Schedule:
    """Rabenseifner allreduce: halving reduce-scatter + doubling allgather.

    ``2·log2 n`` rounds; every transfer is one message over a block
    range, matching MPICH's vector halving.
    """
    levels = _check_power_of_two(n)
    setup = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "prepare", (b,)) for i in range(n) for b in range(n)
        ),
    )
    schedules = [list(rabenseifner_ranges(n, i, levels)) for i in range(n)]

    halving = tuple(
        Round(
            kind="exchange",
            comms=tuple(
                CommOp(
                    src=schedules[i][k][1],
                    dst=i,
                    blocks=tuple(
                        range(schedules[i][k][2][0], schedules[i][k][2][1])
                    ),
                    action="fold",
                )
                for i in range(n)
            ),
        )
        for k in range(levels)
    )

    # doubling: statically evolve each rank's held-segment set (insertion
    # order preserved — it matches the legacy dict.update order)
    holdings: list[list[int]] = [[i] for i in range(n)]
    doubling: list[Round] = []
    for k in range(levels - 1, -1, -1):
        snapshot = [list(h) for h in holdings]
        comms = []
        for i in range(n):
            partner = i ^ (n >> (k + 1))
            comms.append(
                CommOp(
                    src=partner,
                    dst=i,
                    blocks=tuple(snapshot[partner]),
                    action="store",
                )
            )
            holdings[i] = snapshot[i] + [
                b for b in snapshot[partner] if b not in snapshot[i]
            ]
        doubling.append(Round(kind="exchange", comms=tuple(comms)))

    decode = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "finalize", tuple(range(n))) for i in range(n)
        ),
    )
    return Schedule(
        name=f"rabenseifner-allreduce(n={n})",
        n_ranks=n,
        phases=(
            Phase("setup", (setup,)),
            Phase("halving", halving),
            Phase("doubling", tuple(doubling)),
            Phase("finalize", (decode,)),
        ),
    ).validate()


# --------------------------------------------------------------------- #
# rooted trees
# --------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def flat_gather(n: int, root: int) -> Schedule:
    """Flat gather of each rank's owned ring block to the root (concurrent
    sends).

    The incast round serialises the messages at the root; the root's
    ``finalize`` decode covers every gathered block in one batched
    invocation (a codec with nothing to decode skips the phase).
    """
    ring = Ring(n)
    gather = Round(
        kind="incast",
        comms=tuple(
            CommOp(src=i, dst=root, blocks=(ring.owned_block(i),),
                   action="store")
            for i in range(n)
            if i != root
        ),
    )
    decode = Round(
        kind="compute",
        ops=(
            LocalOp(
                root,
                "finalize",
                tuple(sorted(ring.owned_block(i) for i in range(n))),
            ),
        ),
    )
    return Schedule(
        name=f"flat-gather(n={n},root={root})",
        n_ranks=n,
        phases=(Phase("gather", (gather,)), Phase("finalize", (decode,))),
    ).validate()


@lru_cache(maxsize=None)
def batched_fused_reduce(n: int, sessions: int, root: int = 0) -> Schedule:
    """``sessions`` independent rooted reduces in one incast schedule.

    Every rank prepares one whole vector per session (``("v", s, i)``,
    weight ``1/sessions``), all of a rank's session vectors ride one
    incast stream to the root, and the root folds each session's ``n``
    operands with a single fused k-way reduction — landing in its own
    ``("f", s)`` key via ``LocalOp.out`` — before one batched decode: the
    ``N·IFE + FE`` schedule of the fused engine.  ``sessions=1`` is the
    direct rooted reduce; the aggregation service's batching window runs
    it wider.  Under the homomorphic codec both ends are literal kernel
    sweeps: a rank's ``sessions`` vectors are one quantise call and the
    root's ``sessions`` results one ``FZLight.decompress`` call (a DOC
    codec would still invoke the kernel once per vector).  Batching
    amortises the per-message α and the per-call setup while keeping
    every session's arithmetic identical to a one-session run (the fused
    fold is exact in the integer domain, so coalescing cannot change
    decoded values).
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    vec = {
        (s, i): ("v", s, i)
        for s in range(sessions)
        for i in range(n)
    }
    out = tuple(("f", s) for s in range(sessions))
    setup = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "prepare",
                    tuple(vec[s, i] for s in range(sessions)))
            for i in range(n)
        ),
    )
    gather = Round(
        kind="incast",
        comms=tuple(
            CommOp(src=i, dst=root,
                   blocks=tuple(vec[s, i] for s in range(sessions)),
                   action="store")
            for i in range(n)
            if i != root
        ),
    )
    fold = Round(
        kind="compute",
        ops=tuple(
            LocalOp(root, "fold_fused",
                    tuple(vec[s, i] for i in range(n)),
                    fanin=n, out=out[s])
            for s in range(sessions)
        )
        + (LocalOp(root, "finalize", out),),
    )
    weights: dict[Hashable, float] = {v: 1.0 / sessions for v in vec.values()}
    weights.update({o: 1.0 / sessions for o in out})
    return Schedule(
        name=f"batched-fused-reduce(n={n},k={sessions},root={root})",
        n_ranks=n,
        phases=(
            Phase("setup", (setup,)),
            Phase("gather", (gather,)),
            Phase("fused-fold", (fold,)),
        ),
        weights=weights,
    ).validate()


@lru_cache(maxsize=None)
def binomial_bcast(n: int, root: int) -> Schedule:
    """Binomial-tree broadcast of the single block ``"data"``.

    The root prepares the block; in round ``t`` every rank that holds it
    — relative rank ``r < 2ᵗ``, counted from the root — sends it on to
    relative rank ``r + 2ᵗ``, so ``⌈log₂ n⌉`` rounds reach every rank and
    each non-root receives once, from its binomial parent.  A closing
    ``finalize`` phase has every non-root decode what it received (a
    plain codec skips it).
    """
    setup = Round(kind="compute", ops=(LocalOp(root, "prepare", ("data",)),))
    tree: list[Round] = []
    step = 1
    while step < n:
        tree.append(
            Round(
                kind="exchange",
                comms=tuple(
                    CommOp(
                        src=(root + r) % n,
                        dst=(root + r + step) % n,
                        blocks=("data",),
                        action="store",
                    )
                    for r in range(min(step, n - step))
                ),
            )
        )
        step *= 2
    decode = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "finalize", ("data",)) for i in range(n) if i != root
        ),
    )
    return Schedule(
        name=f"binomial-bcast(n={n},root={root})",
        n_ranks=n,
        phases=(
            Phase("setup", (setup,)),
            Phase("tree", tuple(tree)),
            Phase("finalize", (decode,)),
        ),
        weights={"data": 1.0},
    ).validate()


# --------------------------------------------------------------------- #
# two-level hierarchical allreduce
# --------------------------------------------------------------------- #
#: inter-node algorithm families ``hierarchical_allreduce_schedule`` knows.
INTER_FAMILIES = ("ring", "rabenseifner")


def _binomial_steps(size: int) -> list[int]:
    """The doubling step sizes of a ``size``-leaf binomial tree (1,2,4,…)."""
    steps, step = [], 1
    while step < size:
        steps.append(step)
        step *= 2
    return steps


def _intra_rounds(
    nodemap: NodeMap, blocks: tuple[int, ...], direction: str
) -> tuple[Round, ...]:
    """Per-node binomial rounds: ``reduce`` onto each leader or ``bcast``
    from it.

    Every node runs its own tree concurrently inside one Round; the
    round's ``concurrency`` is the *largest per-node* send count, because
    flows on different nodes ride disjoint local fabrics and never
    contend with each other — the whole point of the congestion-law fix.
    """
    steps = _binomial_steps(nodemap.max_node_size)
    rounds = []
    for step in steps if direction == "reduce" else reversed(steps):
        comms: list[CommOp] = []
        busiest = 0
        for node in range(nodemap.n_nodes):
            members = nodemap.members(node)
            sends = 0
            for j in range(0, len(members) - step, 2 * step):
                lo, hi = members[j], members[j + step]
                comms.append(
                    CommOp(
                        src=hi if direction == "reduce" else lo,
                        dst=lo if direction == "reduce" else hi,
                        blocks=blocks,
                        action="fold" if direction == "reduce" else "store",
                    )
                )
                sends += 1
            busiest = max(busiest, sends)
        rounds.append(
            Round(
                kind="exchange",
                comms=tuple(comms),
                concurrency=busiest,
                link_scale=nodemap.intra_scale,
            )
        )
    return tuple(rounds)


def _inter_rounds(inter: str, leaders: tuple[int, ...]) -> tuple[Round, ...]:
    """The flat family's exchange rounds over one leader rank per node.

    ``ring`` is :func:`ring_reduce_scatter` then :func:`ring_allgather`,
    ``rabenseifner`` the halving and doubling of
    :func:`rabenseifner_allreduce_schedule`, both over ``k`` ranks.  Flat
    rank ``i`` becomes ``leaders[i]`` and every round is charged
    ``k``-way congestion — the fabric sees one flow per node.
    """
    k = len(leaders)
    flat = (
        (ring_reduce_scatter(k), ring_allgather(k)) if inter == "ring"
        else (rabenseifner_allreduce_schedule(k),)
    )
    return tuple(
        replace(
            rnd,
            comms=tuple(
                replace(c, src=leaders[c.src], dst=leaders[c.dst])
                for c in rnd.comms
            ),
            concurrency=k,
        )
        for schedule in flat
        for rnd in schedule.rounds()
        if rnd.kind == "exchange"
    )


@lru_cache(maxsize=None)
def hierarchical_allreduce_schedule(
    nodemap: NodeMap, inter: str = "ring"
) -> Schedule:
    """Two-level allreduce over a :class:`~repro.runtime.nodemap.NodeMap`.

    Blocks are the integers ``0 … n_nodes − 1`` (one block per node,
    weight ``1/n_nodes`` each).  Four stages:

    1. *intra-reduce* — per-node binomial tree folds every rank's full
       vector onto its leader over the fast local links
       (``link_scale = intra_scale``, congestion = per-node sends);
    2. *inter* — the chosen flat family's exchange rounds (``ring``
       reduce-scatter + allgather, or ``rabenseifner`` halving/doubling,
       power-of-two node counts only) relabelled onto the ``n_nodes``
       leader ranks, charged ``n_nodes``-way congestion — the fabric sees
       one flow per node, not per rank;
    3. *intra-bcast* — the reduce tree reversed, leaders pushing all
       fully-reduced blocks back down;
    4. one batched *finalize* per rank.

    The schedule is codec-agnostic like every other generator: under the
    :class:`~repro.schedule.codecs.HomomorphicCodec` state stays
    compressed from the setup CPR to the final batched DPR (folds are
    exact integer-domain ``reduce_fused`` calls at every level), under
    the plain codec it is a conventional hierarchical float allreduce.

    Degenerate shapes compose away cleanly: one rank per node leaves no
    intra rounds (the schedule *is* the inter family); a single node
    leaves no inter rounds (a pure intra-node reduce + bcast).
    """
    if inter not in INTER_FAMILIES:
        raise ValueError(
            f"unknown inter-node family {inter!r} (choose from "
            f"{INTER_FAMILIES})"
        )
    n = nodemap.n_ranks
    k = nodemap.n_nodes
    blocks = tuple(range(k))
    setup = Round(
        kind="compute",
        ops=tuple(
            LocalOp(i, "prepare", (b,)) for i in range(n) for b in blocks
        ),
    )
    finalize = Round(
        kind="compute",
        ops=tuple(LocalOp(i, "finalize", blocks) for i in range(n)),
    )
    phases = [Phase("setup", (setup,))]
    intra_reduce = _intra_rounds(nodemap, blocks, "reduce")
    if intra_reduce:
        phases.append(Phase("intra-reduce", intra_reduce))
    if k > 1:
        phases.append(
            Phase(f"inter-{inter}", _inter_rounds(inter, nodemap.leaders()))
        )
    intra_bcast = _intra_rounds(nodemap, blocks, "bcast")
    if intra_bcast:
        phases.append(Phase("intra-bcast", intra_bcast))
    phases.append(Phase("finalize", (finalize,)))
    return Schedule(
        name=(
            f"hierarchical-allreduce(n={n},nodes={k},inter={inter})"
        ),
        n_ranks=n,
        phases=tuple(phases),
        weights={b: 1.0 / k for b in blocks},
    ).validate()


def select_inter_family(network: NetworkModel, nodemap: NodeMap) -> str:
    """Pick the inter-node family from the fabric's congestion structure.

    * **Dragonfly** — past the saturation cliff *every* concurrent flow
      pays the cliff factor, so the winning move is the fewest rounds:
      Rabenseifner's ``2·log2(k)`` beats the ring's ``2·(k−1)`` whenever
      the node count allows it (power of two; otherwise fall back to the
      ring rather than padding).
    * **Torus / fat-tree / base** — the ring: its neighbour exchanges map
      onto torus links, its per-round messages stay at ``1/k`` of the
      vector (Rabenseifner's first halving round moves half the vector,
      which the polynomial torus law punishes), and on the fat-tree's
      gentle log law the bandwidth-optimal ring is the paper's own
      choice.
    """
    k = nodemap.n_nodes
    if isinstance(network, DragonflyNetwork) and k >= 2 and not (k & (k - 1)):
        return "rabenseifner"
    return "ring"
