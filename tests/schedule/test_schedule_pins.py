"""Pin every schedule generator's output by the hash of its ``repr``.

``schedule_pins.json`` maps one case per generator call over a grid —
``n`` 1–16 with every root, chunks 1, 2 and 4, sessions 1–3, and
``hierarchical_allreduce_schedule`` for every regular NodeMap up to 32
ranks with both inter families — to the sha256 of ``repr(schedule)``, or
to the exception type for a call the generator rejects.  A refactor of
the generators must leave every hash in place; the pin was generated
before such a refactor with::

    PYTHONPATH=src python -m tests.schedule.test_schedule_pins \
        > tests/schedule/schedule_pins.json

It was regenerated twice on purpose, each time checked against the
previous tree (CHANGES.md gives the checks): when ``CommOp`` lost its
``wire_count`` and ``degrade`` fields and the broadcast became a real
tree, every non-broadcast hash equalled the previous tree's hash of a
``repr`` with ``, wire_count=1`` and ``, degrade='schedule'`` removed;
when ``CommOp`` lost its ``transport`` field, every hash equalled the
previous tree's hash of a ``repr`` with ``, transport='…'`` removed.  It
was edited by hand once, without regenerating: when ``direct_reduce``
was deleted (``batched_fused_reduce(n, 1, root)`` is the same schedule
under session 0's block ids, pinned already) its keys went, and when
``flat_gather`` lost its ``block_of`` and ``finalize`` arguments (it now
always emits the root's finalize phase) each ``flat_gather(n, root)`` key
took the hash its ``finalize=True`` call had.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Callable, Iterator

import pytest

from repro.runtime.nodemap import NodeMap
from repro.schedule.generators import (
    INTER_FAMILIES,
    batched_fused_reduce,
    binomial_bcast,
    flat_gather,
    hierarchical_allreduce_schedule,
    pipelined_ring_reduce_scatter,
    rabenseifner_allreduce_schedule,
    ring_allgather,
    ring_reduce_scatter,
)

PINS = pathlib.Path(__file__).with_name("schedule_pins.json")
GENERATORS = (
    ring_reduce_scatter,
    ring_allgather,
    pipelined_ring_reduce_scatter,
    rabenseifner_allreduce_schedule,
    flat_gather,
    batched_fused_reduce,
    binomial_bcast,
    hierarchical_allreduce_schedule,
)
BOOLS = (True, False)


def _cases() -> Iterator[tuple[Callable, tuple]]:
    """``(generator, args)`` over the flat grid."""
    for n in range(1, 17):
        for fin in BOOLS:
            yield ring_reduce_scatter, (n, fin)
        for chunks in (1, 2, 4):
            yield ring_allgather, (n, chunks)
            for fin in BOOLS:
                yield pipelined_ring_reduce_scatter, (n, chunks, fin)
        yield rabenseifner_allreduce_schedule, (n,)
        for root in range(n):
            yield flat_gather, (n, root)
            for sessions in (1, 2, 3):
                yield batched_fused_reduce, (n, sessions, root)
            yield binomial_bcast, (n, root)


def _hierarchical_cases() -> Iterator[tuple[str, tuple]]:
    for n in range(1, 33):
        for per_node in range(1, n + 1):
            if n % per_node == 0:
                for inter in INTER_FAMILIES:
                    yield (
                        f"{n},{per_node},{inter}",
                        (NodeMap.regular(n, per_node), inter),
                    )


def _pin(make: Callable, args: tuple) -> str:
    try:
        schedule = make(*args)
    except (ValueError, IndexError) as exc:
        return f"error:{type(exc).__name__}"
    return hashlib.sha256(repr(schedule).encode()).hexdigest()


def characterise() -> dict[str, str]:
    """Case name → sha256 of ``repr(schedule)`` (or the rejecting error)."""
    pins = {
        f"{make.__name__}{args}": _pin(make, args) for make, args in _cases()
    }
    for label, args in _hierarchical_cases():
        name = f"hierarchical_allreduce_schedule({label})"
        pins[name] = _pin(hierarchical_allreduce_schedule, args)
    return pins


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def current() -> dict[str, str]:
    return characterise()


def test_every_pinned_case_is_still_generated(current, pinned):
    assert sorted(current) == sorted(pinned)


@pytest.mark.parametrize("make", GENERATORS, ids=lambda g: g.__name__)
def test_schedules_match_the_pin(current, pinned, make):
    cases = [name for name in pinned if name.startswith(make.__name__ + "(")]
    assert cases
    moved = [name for name in cases if current.get(name) != pinned[name]]
    assert not moved, f"{len(moved)} of {len(cases)} moved, e.g. {moved[:3]}"


if __name__ == "__main__":
    print(json.dumps(characterise(), indent=1, sort_keys=True))
