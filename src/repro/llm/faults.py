"""Seeded fault injection and fault-tolerance policy for the LLM substrate.

The paper's runtime vision assumes flaky, rate-limited LLM APIs; production
systems in this space treat transient failure as the common case.  This
module makes that failure mode *simulable and deterministic*:

- :class:`FaultInjector` decides, per chat-call attempt, whether the
  (simulated) service fails and with which typed error (`RateLimitError`,
  `TimeoutError`, `TransientAPIError`); embedding calls never fault.
  Decisions are a pure function of ``(seed, model, attempt index)`` via
  :func:`repro.utils.hashing.stable_uniform`, so two runs with the same seed
  see the identical fault schedule.  *Rate-limit storms* add time-windowed,
  width-sensitive 429s: inside a ``(start_s, end_s)`` window of virtual
  time, attempts issued at concurrency above ``storm_safe_parallelism`` are
  throttled — the signal the executor's adaptive parallelism controller
  backs off from.
- :class:`RetryPolicy` bounds attempts; :meth:`RetryPolicy.backoff_s` waits
  exponentially (:data:`BASE_BACKOFF_S` times :data:`BACKOFF_MULTIPLIER`
  per failure, capped at :data:`MAX_BACKOFF_S`) with a seeded
  +/- :data:`JITTER` swing.  Backoff waits are *charged to the virtual
  clock* by the caller (:class:`~repro.llm.simulated.SimulatedLLM`), so
  benchmarks show the real latency price of resilience.

Nothing here sleeps: faults and waits exist purely in virtual time/money.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    RateLimitError,
    TimeoutError,
    TransientAPIError,
    TransientLLMError,
)
from repro.utils.hashing import stable_hash, stable_uniform
from repro.utils.persist import check_payload_keys

#: Fault kinds the injector can produce, in rotation order.
FAULT_KINDS = ("rate_limit", "timeout", "api")

_KIND_ERRORS = {
    "rate_limit": RateLimitError,
    "timeout": TimeoutError,
    "api": TransientAPIError,
}

#: ``Retry-After`` hint carried by injected rate-limit errors.
RETRY_AFTER_S = 2.0
#: Backoff after the first failed attempt.
BASE_BACKOFF_S = 0.5
#: Growth of the backoff per further failed attempt.
BACKOFF_MULTIPLIER = 2.0
#: Ceiling on the exponential backoff (before jitter).
MAX_BACKOFF_S = 30.0
#: Jitter as a +/- fraction of the backoff, drawn from the seeded stream.
JITTER = 0.25


@dataclass(frozen=True)
class FaultConfig:
    """Knobs for the seeded fault schedule."""

    #: Per-attempt fault probability for chat models.
    rate: float = 0.0
    #: Which typed errors to inject (subset of :data:`FAULT_KINDS`).
    kinds: tuple[str, ...] = FAULT_KINDS
    #: Rate-limit *storms*: ``(start_s, end_s)`` windows of virtual time in
    #: which calls issued at high concurrency draw 429s with ``storm_rate``.
    #: Models provider-side throttling that punishes wide fan-out — the
    #: signal the adaptive parallelism controller reacts to.
    rate_limit_storms: tuple[tuple[float, float], ...] = ()
    #: Per-attempt 429 probability inside a storm window (width-sensitive).
    storm_rate: float = 0.9
    #: Concurrency at or below which storm throttling never fires — a
    #: narrowed executor rides out the storm.
    storm_safe_parallelism: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"fault rate must be in [0, 1], got {self.rate}")
        if not self.kinds:
            raise ConfigurationError("FaultConfig.kinds must not be empty")
        unknown = set(self.kinds) - set(FAULT_KINDS)
        if unknown:
            raise ConfigurationError(
                f"unknown fault kinds {sorted(unknown)}; known: {list(FAULT_KINDS)}"
            )
        if not 0.0 <= self.storm_rate <= 1.0:
            raise ConfigurationError(
                f"storm_rate must be in [0, 1], got {self.storm_rate}"
            )
        if self.storm_safe_parallelism < 1:
            raise ConfigurationError(
                f"storm_safe_parallelism must be >= 1, got {self.storm_safe_parallelism}"
            )
        for window in self.rate_limit_storms:
            if len(window) != 2 or window[0] > window[1]:
                raise ConfigurationError(
                    f"storm windows must be (start_s, end_s) with start <= end, got {window}"
                )

    def in_storm(self, now: float) -> bool:
        """Whether virtual time ``now`` falls inside a storm window."""
        return any(start <= now < end for start, end in self.rate_limit_storms)

    def to_dict(self) -> dict:
        """JSON-friendly form (tuples become lists); see :meth:`from_dict`."""
        return {
            "rate": self.rate,
            "kinds": list(self.kinds),
            "rate_limit_storms": [list(window) for window in self.rate_limit_storms],
            "storm_rate": self.storm_rate,
            "storm_safe_parallelism": self.storm_safe_parallelism,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultConfig":
        """Rebuild a config serialized with :meth:`to_dict` (replay bundles)."""
        check_payload_keys(cls, payload)
        data = dict(payload)
        if "kinds" in data:
            data["kinds"] = tuple(data["kinds"])
        if "rate_limit_storms" in data:
            data["rate_limit_storms"] = tuple(
                tuple(window) for window in data["rate_limit_storms"]
            )
        return cls(**data)


class FaultInjector:
    """Draws deterministic faults from a seeded schedule.

    The injector consumes one draw per call *attempt* (retries draw again),
    keyed by a monotonically increasing attempt counter — so the schedule is
    a pure function of the seed and the sequence of attempts made, and two
    identical runs fault at identical points.
    """

    def __init__(self, config: FaultConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.attempts = 0
        self.injected = 0
        self.injected_by_kind: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` mirror.
        self.metrics = None

    def _count(self, kind: str) -> None:
        self.injected += 1
        self.injected_by_kind[kind] += 1
        if self.metrics is not None:
            self.metrics.counter(f"faults.injected.{kind}").inc()

    def draw(
        self,
        model: str,
        is_embedding: bool = False,
        width: int = 1,
        now: float = 0.0,
    ) -> TransientLLMError | None:
        """Return a typed error to inject for this attempt, or None.

        ``width`` is the concurrency the attempt was issued at and ``now``
        the virtual time it lands — together they decide whether a
        rate-limit storm window throttles it (wide fan-out inside a storm
        draws 429s; narrow fan-out is safe).  Embedding attempts never
        fault, though they still advance the attempt counter.
        """
        self.attempts += 1
        index = self.attempts
        if is_embedding:
            return None
        if (
            width > self.config.storm_safe_parallelism
            and self.config.in_storm(now)
            and stable_uniform(self.seed, "storm", model, index) < self.config.storm_rate
        ):
            self._count("rate_limit")
            return RateLimitError(
                f"simulated 429 storm throttle from {model} "
                f"(attempt {index}, width {width} at t={now:.1f}s)",
                retry_after_s=RETRY_AFTER_S,
            )
        rate = self.config.rate
        if rate <= 0.0:
            return None
        if stable_uniform(self.seed, "fault", model, index) >= rate:
            return None
        kinds = self.config.kinds
        kind = kinds[stable_hash(self.seed, "fault-kind", index) % len(kinds)]
        self._count(kind)
        if kind == "rate_limit":
            return RateLimitError(
                f"simulated 429 from {model} (attempt {index})",
                retry_after_s=RETRY_AFTER_S,
            )
        return _KIND_ERRORS[kind](f"simulated {kind} fault from {model} (attempt {index})")


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a simulated LLM call gets.

    The default policy retries but — absent a :class:`FaultInjector` — never
    fires, so a fault-free run is byte-identical with or without it.
    ``max_attempts=1`` raises the first fault (no retries).
    """

    #: Total attempts per call, including the first.
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def to_dict(self) -> dict:
        """JSON-friendly form; see :meth:`from_dict`."""
        return {"max_attempts": self.max_attempts}

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryPolicy":
        """Rebuild a policy serialized with :meth:`to_dict` (replay bundles)."""
        check_payload_keys(cls, payload)
        return cls(**payload)

    def backoff_s(
        self,
        failed_attempts: int,
        error: TransientLLMError | None = None,
        *jitter_key: object,
    ) -> float:
        """Backoff before the next attempt, after ``failed_attempts`` failures.

        Exponential with seeded jitter; a rate-limit error's ``retry_after_s``
        acts as a floor (the server told us when to come back).
        """
        wait = min(
            MAX_BACKOFF_S,
            BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** max(0, failed_attempts - 1),
        )
        swing = 2.0 * stable_uniform("backoff-jitter", failed_attempts, *jitter_key) - 1.0
        wait *= 1.0 + JITTER * swing
        if isinstance(error, RateLimitError):
            wait = max(wait, error.retry_after_s)
        return wait
