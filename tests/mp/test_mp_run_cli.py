"""``repro mp run`` verification: what it compares against the simulator.

A run the simulator finishes is compared in full — state, wire bytes and
the ``degraded`` flag — with its faults retried on both planes.  A run
the simulator degrades aborted at rank-dependent points, so only the
``degraded`` flag carries over; the compressed broadcast degrades like
every other family.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.runtime.faults import FaultPlan
from repro.schedule import MPExecutor

ARGS = ["mp", "run", "--family", "bcast", "--ranks", "3",
        "--elements", "2048"]
#: fault seed 0 at this intensity damages and retransmits one bcast
#: stream without exhausting it
RETRIED = ARGS + ["--chaos", "0.1", "--fault-seed", "0"]


@pytest.fixture
def unrecoverable(monkeypatch):
    """Every compressed delivery fails validation on every attempt."""
    monkeypatch.setattr(
        FaultPlan, "chaos",
        classmethod(lambda cls, seed, n, intensity: cls(seed=7, corrupt_rate=1.0)),
    )


def test_faulty_bcast_is_verified_in_full(capsys):
    assert main(RETRIED) == 0
    out = capsys.readouterr().out
    assert "degraded False" in out and "retransmits 1" in out
    assert "bit-identical to the simulator" in out


def test_bcast_with_a_wrong_state_fails(monkeypatch, capsys):
    run = MPExecutor.run

    def tampered(self, schedule, state):
        result = run(self, schedule, state)
        result.state[1]["data"] = result.state[1]["data"] + 1.0
        return result

    monkeypatch.setattr(MPExecutor, "run", tampered)
    assert main(RETRIED) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_degraded_bcast_is_verified_on_the_flag(unrecoverable, capsys):
    assert main(ARGS + ["--chaos", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "degraded True" in out
    assert "both degraded (flags match)" in out
