"""Unit tests for seeded fault injection and the retry policy."""

import pytest

from repro.errors import (
    ConfigurationError,
    RateLimitError,
    TimeoutError,
    TransientAPIError,
    TransientLLMError,
)
from repro.llm import faults
from repro.llm.faults import (
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF_S,
    JITTER,
    MAX_BACKOFF_S,
    RETRY_AFTER_S,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)


# ---------------------------------------------------------------------------
# FaultConfig
# ---------------------------------------------------------------------------


def test_fault_config_validates_rate():
    with pytest.raises(ConfigurationError):
        FaultConfig(rate=1.5)
    with pytest.raises(ConfigurationError):
        FaultConfig(rate=-0.1)


def test_fault_config_validates_kinds():
    with pytest.raises(ConfigurationError):
        FaultConfig(kinds=())
    with pytest.raises(ConfigurationError):
        FaultConfig(kinds=("rate_limit", "meteor_strike"))


def test_fault_config_embeddings_excluded_by_default():
    injector = FaultInjector(FaultConfig(rate=1.0), seed=0)
    assert injector.draw("text-embedding-3-small", is_embedding=True) is None
    assert injector.draw("gpt-4o", is_embedding=False) is not None
    # The embedding attempt still advanced the schedule.
    assert (injector.attempts, injector.injected) == (2, 1)


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------


def test_injector_same_seed_same_schedule():
    def schedule(seed):
        injector = FaultInjector(FaultConfig(rate=0.3), seed=seed)
        return [
            type(injector.draw("gpt-4o")).__name__ for _ in range(50)
        ]

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)


def test_injector_zero_rate_never_faults():
    injector = FaultInjector(FaultConfig(rate=0.0), seed=0)
    assert all(injector.draw("gpt-4o") is None for _ in range(100))
    assert injector.injected == 0


def test_injector_rate_roughly_respected():
    injector = FaultInjector(FaultConfig(rate=0.2), seed=1)
    faults = sum(1 for _ in range(500) if injector.draw("gpt-4o") is not None)
    assert 60 <= faults <= 140  # 100 expected; generous deterministic band


def test_injector_produces_typed_errors():
    injector = FaultInjector(FaultConfig(rate=1.0), seed=0)
    kinds = {type(injector.draw("gpt-4o")) for _ in range(30)}
    assert kinds == {RateLimitError, TimeoutError, TransientAPIError}
    assert all(issubclass(kind, TransientLLMError) for kind in kinds)


def test_injector_rate_limit_carries_retry_after():
    injector = FaultInjector(FaultConfig(rate=1.0, kinds=("rate_limit",)), seed=0)
    fault = injector.draw("gpt-4o")
    assert isinstance(fault, RateLimitError)
    assert fault.retry_after_s == RETRY_AFTER_S == 2.0


def test_injector_counts_by_kind():
    injector = FaultInjector(FaultConfig(rate=1.0), seed=0)
    for _ in range(20):
        injector.draw("gpt-4o")
    assert injector.injected == 20
    assert sum(injector.injected_by_kind.values()) == 20


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


def test_retry_policy_validates():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)


def test_backoff_grows_exponentially_and_caps(monkeypatch):
    assert (BASE_BACKOFF_S, BACKOFF_MULTIPLIER, MAX_BACKOFF_S) == (0.5, 2.0, 30.0)
    monkeypatch.setattr(faults, "JITTER", 0.0)
    waits = [RetryPolicy().backoff_s(n) for n in range(1, 9)]
    assert waits == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]


def test_backoff_jitter_is_seeded_and_bounded():
    assert JITTER == 0.25
    policy = RetryPolicy()
    first = policy.backoff_s(1, None, "key-a")
    assert first == policy.backoff_s(1, None, "key-a")  # deterministic
    assert first != policy.backoff_s(1, None, "key-b")  # stream varies by key
    assert BASE_BACKOFF_S * (1 - JITTER) <= first <= BASE_BACKOFF_S * (1 + JITTER)
    capped = policy.backoff_s(20, None, "key-a")
    assert MAX_BACKOFF_S * (1 - JITTER) <= capped <= MAX_BACKOFF_S * (1 + JITTER)


def test_backoff_honors_retry_after_floor():
    error = RateLimitError("429", retry_after_s=9.0)
    assert RetryPolicy().backoff_s(1, error) == 9.0


# ---------------------------------------------------------------------------
# Replay-bundle payloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "retired",
    ["per_model_rates", "include_embeddings", "burst_length", "burst_rate",
     "retry_after_s"],
)
def test_fault_config_from_dict_names_a_retired_key(retired):
    payload = {**FaultConfig(rate=0.1).to_dict(), retired: 0}
    with pytest.raises(ConfigurationError, match=retired):
        FaultConfig.from_dict(payload)


@pytest.mark.parametrize(
    "retired",
    ["enabled", "base_backoff_s", "backoff_multiplier", "max_backoff_s", "jitter",
     "timeout_s", "breaker_threshold", "breaker_cooldown_s"],
)
def test_retry_policy_from_dict_names_a_retired_key(retired):
    with pytest.raises(ConfigurationError, match=retired):
        RetryPolicy.from_dict({"max_attempts": 3, retired: 0})
