"""Property-based contracts for RetryPolicy (hypothesis).

Both planes walk the same attempts under these delays, and the simulator
charges them to its clocks: a delay that escaped ``max_delay_s`` or ran
backwards as attempts grow would skew every modelled fault storm.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.faults import RetryPolicy

policies = st.builds(
    RetryPolicy,
    timeout_s=st.floats(0.0, 1.0, allow_nan=False),
    base_delay_s=st.floats(0.0, 0.1, allow_nan=False),
    backoff=st.floats(1.0, 8.0, allow_nan=False),
    max_delay_s=st.floats(0.1, 1.0, allow_nan=False),
    max_attempts=st.integers(1, 64),
)


@settings(max_examples=200)
@given(policy=policies, attempt=st.integers(0, 63))
def test_delay_is_monotone_in_attempt(policy, attempt):
    assert policy.delay(attempt + 1) >= policy.delay(attempt)


@settings(max_examples=200)
@given(policy=policies, attempt=st.integers(0, 1000))
def test_delay_is_bounded_and_nonnegative(policy, attempt):
    d = policy.delay(attempt)
    assert 0.0 <= d <= policy.max_delay_s


class TestValidation:
    """Regression: __post_init__ rejects nonsense instead of storing it."""

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="delays must be >= 0"):
            RetryPolicy(timeout_s=-1e-6)

    def test_negative_max_delay_rejected(self):
        with pytest.raises(ValueError, match="max_delay_s"):
            RetryPolicy(max_delay_s=-1.0)

    def test_backoff_below_one_rejected(self):
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=0.5)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_swapped_delay_bounds_warn_but_clamp(self):
        with pytest.warns(UserWarning, match="max_delay_s"):
            policy = RetryPolicy(base_delay_s=1e-3, max_delay_s=1e-6)
        assert policy.delay(0) == policy.max_delay_s
        assert policy.delay(10) == policy.max_delay_s
