"""The schedule IR's vocabulary is live: every word is run by some row.

Every value of ``ACTIONS``, ``TRANSPORTS``, ``LOCAL_KINDS`` and
``ROUND_KINDS``, and every ``(transport, compressed)`` row of
``executor.TRANSPORT``, must be emitted by at least one family-table
stage's schedule in a phase its codec runs, at n ∈ {2, …, 8} (the
hierarchical rows on every ``NodeMap.regular`` placement with both inter
families).  A word no row emits is still accepted by ``validate()``,
priced by ``schedule_cost`` and dispatched by the executor: dead
vocabulary is deleted, not kept for later.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import SimCluster
from repro.runtime.network import NetworkModel
from repro.runtime.nodemap import NodeMap
from repro.schedule import PlainCodec, ScheduleExecutor
from repro.schedule.executor import TRANSPORT
from repro.schedule.families import STAGES
from repro.schedule.generators import INTER_FAMILIES
from repro.schedule.ir import (
    ACTIONS,
    LOCAL_KINDS,
    ROUND_KINDS,
    TRANSPORTS,
    LocalOp,
    Phase,
    Round,
    Schedule,
)


def _bindings(n: int):
    """Every parameter binding the rows are run with at ``n`` ranks."""
    base = {"n": n, "root": 0, "chunks": 2, "sessions": 2,
            "network": NetworkModel()}
    for per_node in range(1, n + 1):
        if n % per_node == 0:
            for inter in INTER_FAMILIES:
                yield {**base, "nodemap": NodeMap.regular(n, per_node),
                       "inter": inter}


@pytest.fixture(scope="module")
def emitted() -> dict[str, set]:
    words: dict[str, set] = {
        "actions": set(), "transports": set(), "local_kinds": set(),
        "round_kinds": set(), "transport_rows": set(),
    }
    for stages in STAGES.values():
        for stage in stages:
            table = stage.discipline
            for n in range(2, 9):
                for params in _bindings(n):
                    try:
                        schedule = stage.schedule(**params)
                    except ValueError:
                        continue  # say, Rabenseifner off a power of two
                    for phase in schedule.phases:
                        if table.phase_name(phase.slot) is None:
                            continue  # the codec skips it: nothing runs
                        for rnd in phase.rounds:
                            words["round_kinds"].add(rnd.kind)
                            words["local_kinds"].update(
                                op.kind for op in rnd.ops
                            )
                            for comm in rnd.comms:
                                words["actions"].add(comm.action)
                                words["transports"].add(comm.transport)
                                words["transport_rows"].add(
                                    (comm.transport, table.compressed_wire)
                                )
    return words


VOCABULARIES = {
    "actions": ACTIONS,
    "transports": TRANSPORTS,
    "local_kinds": LOCAL_KINDS,
    "round_kinds": ROUND_KINDS,
    "transport_rows": tuple(TRANSPORT),
}


@pytest.mark.parametrize("name", sorted(VOCABULARIES))
def test_every_word_is_emitted(emitted, name):
    dead = [word for word in VOCABULARIES[name] if word not in emitted[name]]
    assert not dead, f"{name}: no family row runs {dead}"


def test_validate_rejects_a_pack_op():
    # a per-round encode is the codec's pack of a comm, never a LocalOp
    schedule = Schedule(
        name="pack-op",
        n_ranks=1,
        phases=(
            Phase("setup", (Round(kind="compute",
                                  ops=(LocalOp(0, "pack", (0,)),)),)),
        ),
    )
    with pytest.raises(ValueError, match="unknown local op kind 'pack'"):
        schedule.validate()


def test_fold_of_an_unstaged_block_raises():
    # a fold LocalOp with no matching stage comm is a schedule bug
    bad = Schedule(
        name="fold-without-stage",
        n_ranks=2,
        phases=(
            Phase(
                "exchange",
                (Round(kind="exchange", ops=(LocalOp(1, "fold", (0,)),)),),
            ),
        ),
    ).validate()
    cluster = SimCluster(2)
    block = np.ones(8, dtype=np.float32)
    with pytest.raises(KeyError):
        ScheduleExecutor(cluster, PlainCodec(cluster)).run(
            bad, [{0: block}, {0: block}]
        )
