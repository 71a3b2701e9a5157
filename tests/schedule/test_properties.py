"""Property-based structural checks on the schedule generators.

A tiny symbolic interpreter replays each schedule with provenance sets
instead of payloads — ``state[rank][block]`` is the frozen set of origin
ranks whose contribution the partial contains.  The executor's semantics
are mirrored exactly (pack snapshots before delivery, stage → pending →
fold), so these invariants hold for any codec:

* **fold-exactly-once** — every fold unions *disjoint* provenance sets
  (a block is never folded twice into the same partial), and each
  reduce-scatter output ends with all ``n`` contributions;
* **ownership conservation** — allgather/doubling rounds only move
  finished blocks; every rank ends holding every block id;
* **no dangling stages** — every staged chunk is consumed by a fold
  (the pipelined ring's lag-one discipline leaves nothing in flight).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.topology import Ring
from repro.schedule import (
    Schedule,
    batched_fused_reduce,
    binomial_bcast,
    flat_gather,
    pipelined_ring_reduce_scatter,
    rabenseifner_allreduce_schedule,
    ring_allgather,
    ring_reduce_scatter,
)

ranks = st.integers(min_value=2, max_value=12)
pow2_ranks = st.sampled_from([2, 4, 8, 16])
chunk_counts = st.integers(min_value=2, max_value=4)


def run_symbolic(schedule: Schedule, state: list[dict]) -> list[dict]:
    """Replay a schedule with provenance-set payloads (executor semantics)."""
    pending: dict = {}
    for rnd in schedule.rounds():
        packed = [
            tuple(state[c.src][b] for b in c.blocks) for c in rnd.comms
        ]
        for comm, items in zip(rnd.comms, packed):
            if comm.action == "fold":
                for b, item in zip(comm.blocks, items):
                    assert not (state[comm.dst][b] & item), (
                        f"double fold of {b} at rank {comm.dst}"
                    )
                    state[comm.dst][b] = state[comm.dst][b] | item
            elif comm.action == "store":
                for b, item in zip(comm.blocks, items):
                    state[comm.dst][b] = item
            elif comm.action == "stage":
                for b, item in zip(comm.blocks, items):
                    assert (comm.dst, b) not in pending, "stage collision"
                    pending[(comm.dst, b)] = item
        for op in rnd.ops:
            if op.kind == "fold":
                for b in op.blocks:
                    item = pending.pop((op.rank, b))
                    assert not (state[op.rank][b] & item), (
                        f"double fold of {b} at rank {op.rank}"
                    )
                    state[op.rank][b] = state[op.rank][b] | item
            elif op.kind == "fold_fused":
                parts = [state[op.rank][b] for b in op.blocks]
                union = frozenset()
                for p in parts:
                    assert not (union & p), "fused fold double-counts"
                    union = union | p
                state[op.rank][op.out] = union
    assert not pending, f"{len(pending)} staged chunks never folded"
    return state


def seed_reduce_scatter(n: int, block_ids) -> list[dict]:
    """Every rank contributes its own share of every block."""
    return [{b: frozenset({i}) for b in block_ids} for i in range(n)]


@given(n=ranks)
@settings(max_examples=25, deadline=None)
def test_ring_reduce_scatter_folds_each_contribution_once(n):
    state = run_symbolic(
        ring_reduce_scatter(n), seed_reduce_scatter(n, range(n))
    )
    everyone = frozenset(range(n))
    ring = Ring(n)
    for i in range(n):
        assert state[i][ring.owned_block(i)] == everyone


@given(n=ranks, chunks=chunk_counts)
@settings(max_examples=25, deadline=None)
def test_pipelined_ring_conserves_and_drains(n, chunks):
    ids = [(b, c) for b in range(n) for c in range(chunks)]
    state = run_symbolic(
        pipelined_ring_reduce_scatter(n, chunks),
        seed_reduce_scatter(n, ids),
    )
    everyone = frozenset(range(n))
    ring = Ring(n)
    for i in range(n):
        for c in range(chunks):
            assert state[i][(ring.owned_block(i), c)] == everyone


@given(n=pow2_ranks)
@settings(max_examples=10, deadline=None)
def test_rabenseifner_ends_fully_reduced_everywhere(n):
    state = run_symbolic(
        rabenseifner_allreduce_schedule(n), seed_reduce_scatter(n, range(n))
    )
    everyone = frozenset(range(n))
    for i in range(n):
        for b in range(n):
            assert state[i][b] == everyone, f"rank {i} block {b}"


@given(n=ranks, chunks=st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_allgather_ownership_conservation(n, chunks):
    ring = Ring(n)
    ids = lambda k: [(k, c) for c in range(chunks)] if chunks > 1 else [k]
    state = [
        {cid: frozenset({i}) for cid in ids(ring.owned_block(i))}
        for i in range(n)
    ]
    state = run_symbolic(ring_allgather(n, chunks=chunks), state)
    owner_of = {ring.owned_block(i): i for i in range(n)}
    for i in range(n):
        for k in range(n):
            for cid in ids(k):
                assert state[i][cid] == frozenset({owner_of[k]}), (
                    f"rank {i} holds a forged copy of block {k}"
                )


@given(n=ranks, root_frac=st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=25, deadline=None)
def test_rooted_schedules_deliver_everything_to_the_root(n, root_frac):
    root = int(root_frac * n)
    ring = Ring(n)
    state = [{ring.owned_block(i): frozenset({i})} for i in range(n)]
    state = run_symbolic(flat_gather(n, root), state)
    assert {b for b in state[root]} == set(range(n))

    state = [{("v", 0, i): frozenset({i})} for i in range(n)]
    state = run_symbolic(batched_fused_reduce(n, 1, root), state)
    assert state[root]["f", 0] == frozenset(range(n))

    state = [dict() for _ in range(n)]
    state[root]["data"] = frozenset({root})
    state = run_symbolic(binomial_bcast(n, root), state)
    for i in range(n):
        assert state[i]["data"] == frozenset({root})


def test_bcast_is_a_binomial_tree():
    """The root sends ⌈log₂ n⌉ times; every other rank receives ``"data"``
    once, from its binomial parent (its offset from the root with the
    highest bit cleared)."""
    for n in range(1, 17):
        for root in range(n):
            comms = list(binomial_bcast(n, root).comms())
            assert sum(c.src == root for c in comms) == (n - 1).bit_length()
            for i in range(n):
                into = [c for c in comms if c.dst == i]
                if i == root:
                    assert not into
                    continue
                offset = (i - root) % n
                parent = (root + offset - (1 << offset.bit_length() - 1)) % n
                assert [(c.src, c.blocks) for c in into] == [
                    (parent, ("data",))
                ]
