"""``repro mp run`` verification: what it compares against the simulator.

A compressed bcast degrades per delivery and never aborts, so even with
every stream unrecoverable the run finishes and its state, wire bytes
and ``degraded`` flag must match the simulator's.  Only a schedule-level
abort narrows the check to the ``degraded`` flag.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.runtime.faults import FaultPlan
from repro.schedule import MPExecutor

ARGS = ["mp", "run", "--family", "bcast", "--ranks", "3",
        "--elements", "2048", "--chaos", "0.5"]


@pytest.fixture
def unrecoverable(monkeypatch):
    """Every compressed delivery fails validation on every attempt."""
    monkeypatch.setattr(
        FaultPlan, "chaos",
        classmethod(lambda cls, seed, n, intensity: cls(seed=7, corrupt_rate=1.0)),
    )


def test_degraded_bcast_is_verified_in_full(unrecoverable, capsys):
    assert main(ARGS) == 0
    out = capsys.readouterr().out
    assert "degraded True" in out
    assert "bit-identical to the simulator" in out


def test_degraded_bcast_with_a_wrong_state_fails(unrecoverable, monkeypatch,
                                                 capsys):
    run = MPExecutor.run

    def tampered(self, schedule, state):
        result = run(self, schedule, state)
        result.state[1]["data"] = result.state[1]["data"] + 1.0
        return result

    monkeypatch.setattr(MPExecutor, "run", tampered)
    assert main(ARGS) == 1
    assert "MISMATCH" in capsys.readouterr().out
