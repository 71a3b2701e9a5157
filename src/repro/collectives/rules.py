"""The family table's rule vocabulary: validation, seeding, gathering.

Rows in :mod:`repro.collectives` name these functions; the interpreter
(:mod:`repro.collectives.interpreter`) calls them.  ``p`` is the run's
bound params (``n``, ``root``, ``chunks``, ``nodemap`` …).  Seeds build
``state[rank][block_id]`` in the block-id convention of the generator the
row's stage calls (see :mod:`repro.schedule.generators`); gathers read the
outputs back out of it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..runtime.topology import Ring
from .base import split_blocks, validate_local_data

# --------------------------------------------------------------------- #
# validation rules: (family, data, params) -> data
# --------------------------------------------------------------------- #
def check_arrays(family, local_data, p):
    arrays = validate_local_data(local_data)
    if len(arrays) != p["n"]:
        raise ValueError(f"got {len(arrays)} rank arrays for {p['n']} ranks")
    return arrays


def check_chunks(family, chunks, p):
    if len(chunks) != p["n"]:
        noun = "compressed chunks" if family.compressed_input else "chunks"
        raise ValueError(f"got {len(chunks)} {noun} for {p['n']} ranks")
    if family.compressed_input:
        return chunks
    return [np.asarray(chunk) for chunk in chunks]


def check_root(family, data, p):
    if not 0 <= p["root"] < p["n"]:
        raise IndexError(f"root {p['root']} out of range for {p['n']} ranks")
    return data


def check_nodemap(family, data, p):
    if p["nodemap"].n_ranks != p["n"]:
        raise ValueError(
            f"NodeMap places {p['nodemap'].n_ranks} ranks but the cluster "
            f"has {p['n']}"
        )
    return data


def check_payload(family, data, p):
    return validate_local_data([data])[0]


def check_batch(family, sessions, p):
    """Validate every session and pin the same-shape batching invariant."""
    if not sessions:
        raise ValueError("empty batch: need at least one session")
    batch = [validate_local_data(s) for s in sessions]
    for s, arrays in enumerate(batch):
        if len(arrays) != p["n"]:
            raise ValueError(
                f"session {s}: got {len(arrays)} rank arrays for "
                f"{p['n']} ranks"
            )
        if arrays[0].shape != batch[0][0].shape:
            raise ValueError(
                f"session {s}: shape {arrays[0].shape} differs from "
                f"session 0 shape {batch[0][0].shape} (batches must be "
                "same-shaped)"
            )
    return batch


# --------------------------------------------------------------------- #
# seed rules: (data, params) -> state, in the generators' block-id
# conventions (see repro.schedule.generators)
# --------------------------------------------------------------------- #
def seed_blocks(arrays, p):
    return [dict(enumerate(split_blocks(a, p["n"]))) for a in arrays]


def seed_node_blocks(arrays, p):
    k = p["nodemap"].n_nodes
    return [dict(enumerate(split_blocks(a, k))) for a in arrays]


def seed_chunked_blocks(arrays, p):
    return [
        {
            (b, c): chunk
            for b, block in enumerate(split_blocks(a, p["n"]))
            for c, chunk in enumerate(split_blocks(block, p["chunks"]))
        }
        for a in arrays
    ]


def seed_owned(chunks, p):
    ring = Ring(p["n"])
    return [{ring.owned_block(i): chunk} for i, chunk in enumerate(chunks)]


def seed_owned_chunks(chunked, p):
    ring = Ring(p["n"])
    return [
        {(ring.owned_block(i), c): chunk for c, chunk in enumerate(chunks)}
        for i, chunks in enumerate(chunked)
    ]


def seed_session(arrays, p):
    """One rooted reduce, seeded as session 0 of the fused-fold incast."""
    return seed_sessions([arrays], p)


def seed_sessions(batch, p):
    return [
        {("v", s, i): arrays[i] for s, arrays in enumerate(batch)}
        for i in range(p["n"])
    ]


def seed_root_payload(data, p):
    state: list[dict] = [{} for _ in range(p["n"])]
    state[p["root"]]["data"] = data
    return state


# --------------------------------------------------------------------- #
# gather rules: (state, data, params) -> outputs
# --------------------------------------------------------------------- #
def gather_owned(state, data, p):
    ring = Ring(p["n"])
    return [mine[ring.owned_block(i)] for i, mine in enumerate(state)]


def gather_owned_chunks(state, data, p):
    ring = Ring(p["n"])
    return [
        [mine[ring.owned_block(i), c] for c in range(p["chunks"])]
        for i, mine in enumerate(state)
    ]


def gather_concat(state, data, p):
    """Every block a rank holds, in block-id order, as one fresh vector.

    A compressed codec's finalize decodes a rank's blocks into one new
    vector and leaves views of it: when the blocks tile such a vector in
    order, it is the output as it stands.  Anything else (plain or DOC
    blocks, or a vector that is the input's memory) is concatenated, so
    no output aliases the input or another rank's output.
    """
    inputs = [a for a in data if isinstance(a, np.ndarray)]
    return [
        _tiled([mine[block] for block in sorted(mine)], inputs)
        for mine in state
    ]


def _tiled(blocks: list[np.ndarray], inputs: list[np.ndarray]) -> np.ndarray:
    """The vector ``blocks`` are consecutive views of, from its first
    element to its last, or their concatenation."""
    whole = blocks[0].base
    if (
        whole is not None
        and whole.ndim == 1
        and whole.dtype == np.float32
        and whole.size == sum([b.size for b in blocks])
        and not any([np.may_share_memory(whole, a) for a in inputs])
    ):
        at = whole.__array_interface__["data"][0]
        for b in blocks:
            if (
                b.base is not whole
                or not b.flags.c_contiguous
                or b.__array_interface__["data"][0] != at
            ):
                break
            at += b.nbytes
        else:
            return whole
    return np.concatenate(blocks)


def _at_root(value: Any, p) -> list:
    outputs: list = [None] * p["n"]
    outputs[p["root"]] = value
    return outputs


def gather_root_concat(state, data, p):
    return _at_root(gather_concat([state[p["root"]]], data, p)[0], p)


def gather_root_session(state, data, p):
    return _at_root(state[p["root"]]["f", 0], p)


def gather_session_folds(state, batch, p):
    """Indexed **by session**, not by rank: the root holds every result."""
    return [state[p["root"]]["f", s] for s in range(len(batch))]


def gather_delivered(state, data, p):
    """Every rank's copy of the broadcast payload: the root's is the
    caller's array, the others' what the tree delivered.  Each is copied,
    so no output aliases the input or another rank's output."""
    return [
        (data if i == p["root"] else mine["data"]).copy()
        for i, mine in enumerate(state)
    ]


# --------------------------------------------------------------------- #
# layouts: the (checks, seed, gather) a family shares with every other
# family that lays its data out the same way, whatever the codec
# --------------------------------------------------------------------- #
REDUCE_SCATTER = dict(
    checks=(check_arrays,), seed=seed_blocks, gather=gather_owned
)
ALLGATHER = dict(checks=(check_chunks,), seed=seed_owned, gather=gather_concat)
ALLREDUCE = dict(
    checks=(check_arrays,), seed=seed_blocks, gather=gather_concat
)
PLACED_ALLREDUCE = dict(
    checks=(check_arrays, check_nodemap),
    seed=seed_node_blocks, gather=gather_concat,
)
ROOT_GATHER = dict(seed=seed_owned, gather=gather_root_concat)
