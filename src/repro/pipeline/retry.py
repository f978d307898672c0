"""Bounded retry with exponential backoff and jitter.

Pipeline flush and notify touch two fallible edges: the spatial database
(:class:`~repro.errors.SensorError` on bad metadata races) and the ORB
(:class:`~repro.errors.OrbError` on transient transport failures).
Both are retried with capped exponential backoff plus decorrelating
jitter; anything else propagates immediately — a programming error must
not be retried into the dead-letter queue.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.errors import OrbError, PipelineError, SensorError

T = TypeVar("T")

# The transient error classes pipeline flush/notify retries; everything
# else is assumed permanent.
TRANSIENT_ERRORS: Tuple[Type[BaseException], ...] = (SensorError, OrbError)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient failures.

    ``delay(attempt)`` for attempt 1, 2, 3... is
    ``min(max_delay, base_delay * multiplier ** (attempt - 1))``,
    scaled by a uniform jitter factor in ``[1 - jitter, 1 + jitter]``.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PipelineError("max_attempts must be >= 1")
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise PipelineError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise PipelineError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise PipelineError("jitter must be in [0, 1)")

    def delay_for(self, attempt: int,
                  rng: Optional[random.Random] = None) -> float:
        """The backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise PipelineError("attempt numbers are 1-based")
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0 or rng is None:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


def call_with_retry(fn: Callable[[], T],
                    policy: Optional[RetryPolicy] = None,
                    retryable: Tuple[Type[BaseException], ...]
                    = TRANSIENT_ERRORS,
                    sleep: Callable[[float], None] = time.sleep,
                    rng: Optional[random.Random] = None,
                    on_retry: Optional[Callable[[int, BaseException], None]]
                    = None) -> T:
    """Call ``fn`` retrying transient failures; returns its result.

    ``sleep`` and ``rng`` are injectable so tests run instantly and
    deterministically.  ``on_retry(attempt, exc)`` fires before each
    backoff — the pipeline counts retries there.  The last exception is
    re-raised once ``policy.max_attempts`` calls have all failed.
    """
    if policy is None:
        policy = RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except retryable as exc:
            if attempt >= policy.max_attempts:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            delay = policy.delay_for(attempt, rng)
            if delay > 0.0:
                sleep(delay)
