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


def seed_vectors(arrays, p):
    return [{("vec", i): a} for i, a in enumerate(arrays)]


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
    """Every block a rank holds, concatenated in block-id order."""
    return [
        np.concatenate([mine[block] for block in sorted(mine)])
        for mine in state
    ]


def _at_root(value: Any, p) -> list:
    outputs: list = [None] * p["n"]
    outputs[p["root"]] = value
    return outputs


def gather_root_concat(state, data, p):
    return _at_root(gather_concat([state[p["root"]]], data, p)[0], p)


def gather_root_fused(state, data, p):
    return _at_root(state[p["root"]]["fused"], p)


def gather_session_folds(state, batch, p):
    """Indexed **by session**, not by rank: the root holds every result."""
    return [state[p["root"]]["f", s] for s in range(len(batch))]


def gather_replicas(state, data, p):
    return [data.copy() for _ in range(p["n"])]


def gather_delivered(state, data, p):
    return [
        data.copy() if i == p["root"] else mine["data"]
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
