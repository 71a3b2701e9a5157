"""Pin every family row's analytic price by the hash of its ``repr``.

``cost_pins.json`` maps one case per family-table row (``STAGES``) ×
``n`` ∈ {2, 3, 4, 8, 16} × 4 KB / 1 MB / 64 MB per rank to the sha256 of
``repr((buckets, total_time))`` of :func:`~repro.schedule.families.
family_cost` under the paper's Broadwell rates, or to the exception type
for a row the generator rejects at that ``n``.  It covers the rows no
``BENCH_*`` document prices (the rooted gather, the compressed broadcast,
the batched reduce).  A refactor of how stages are priced must leave every
hash in place; the pin was generated before such a refactor with::

    PYTHONPATH=src python -m tests.schedule.test_cost_pins \
        > tests/schedule/cost_pins.json

It was edited by hand once, without regenerating: the
``plain_gather_unspanned`` row was deleted (its hashes were byte-equal to
``plain_gather``'s) and its keys with it.  A batch row is priced at three
sessions; since the direct rooted reduce runs the batch row's stage as
its one session, the ``sessions`` width is bound for batch rows only, so
every other row reads the default and keeps its hash.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.collectives import FAMILIES
from repro.core.cost_model import PAPER_BROADWELL
from repro.runtime.network import NetworkModel
from repro.runtime.nodemap import NodeMap
from repro.schedule.families import STAGES, family_cost

PINS = pathlib.Path(__file__).with_name("cost_pins.json")
RANKS = (2, 3, 4, 8, 16)
SIZES = (4 << 10, 1 << 20, 64 << 20)
NET = NetworkModel()


def _pin(name: str, n: int, size: int) -> str:
    # every row reads only the params its stages' generators name
    params = {
        "n": n,
        "chunks": 2,
        "nodemap": NodeMap.regular(n, 2 if n % 2 == 0 else 1),
    }
    if FAMILIES[name].per_session:
        params["sessions"] = 3
    try:
        bd = family_cost(name, size, PAPER_BROADWELL, NET, **params)
    except (ValueError, IndexError) as exc:
        return f"error:{type(exc).__name__}"
    return hashlib.sha256(repr((bd.buckets, bd.total_time)).encode()).hexdigest()


def characterise() -> dict[str, str]:
    """Case name → sha256 of the row's priced Breakdown."""
    return {
        f"{name}(n={n},bytes={size})": _pin(name, n, size)
        for name in STAGES
        for n in RANKS
        for size in SIZES
    }


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def current() -> dict[str, str]:
    return characterise()


def test_every_pinned_case_is_still_priced(current, pinned):
    assert sorted(current) == sorted(pinned)


@pytest.mark.parametrize("name", sorted(STAGES))
def test_prices_match_the_pin(current, pinned, name):
    cases = [case for case in pinned if case.startswith(name + "(")]
    assert cases
    moved = [case for case in cases if current.get(case) != pinned[case]]
    assert not moved, f"{len(moved)} of {len(cases)} moved, e.g. {moved[:3]}"


if __name__ == "__main__":
    print(json.dumps(characterise(), indent=1, sort_keys=True))
