"""Resilience patterns: seeded backoff, retry, circuit breaker.

These are the idioms the hardened mini-apps use to survive the chaos suite
(:mod:`repro.inject`): transient failures — a killed peer, a dropped
connection, an injected cancellation — are retried with exponential backoff
and jitter instead of propagating.

Determinism: a :class:`Backoff`'s jitter RNG is seeded from
``(scheduler seed, name)`` via a stable hash, never from Python's per-process
hash seed and never from the scheduler's own RNG (consuming scheduler
randomness for jitter would change every subsequent scheduling decision and
make "with backoff" and "without backoff" runs incomparable).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Optional, Tuple, Type

from ..runtime.errors import SimulatorError


def _stable_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Backoff:
    """Exponential backoff with deterministic jitter on the virtual clock."""

    def __init__(self, rt, base: float = 0.05, factor: float = 2.0,
                 max_delay: float = 2.0, jitter: float = 0.5,
                 name: str = "backoff"):
        self._rt = rt
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self.attempt = 0
        self._rng = _stable_rng(rt.sched.seed, name)

    def next_delay(self) -> float:
        """The next sleep: ``min(base * factor^n, max) * (1 + U[0, jitter])``."""
        raw = min(self.base * (self.factor ** self.attempt), self.max_delay)
        self.attempt += 1
        return raw * (1.0 + self.jitter * self._rng.random())

    def sleep(self) -> None:
        self._rt.sleep(self.next_delay())

    def reset(self) -> None:
        self.attempt = 0


def retry(rt, fn: Callable[[], Any], attempts: int = 5,
          retry_on: Tuple[Type[BaseException], ...] = (SimulatorError,),
          backoff: Optional[Backoff] = None, ctx=None,
          name: str = "retry") -> Any:
    """Call ``fn`` until it succeeds, sleeping a backoff between attempts.

    Retries only exceptions in ``retry_on`` (default: simulator errors such
    as ``GoPanic`` — a closed channel, a dead peer); anything else, and the
    final attempt's failure, propagate.  An already-cancelled ``ctx`` stops
    the loop early and re-raises the last failure.
    """
    if attempts < 1:
        raise ValueError("retry needs at least one attempt")
    policy = backoff if backoff is not None else Backoff(rt, name=name)
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on:
            # Re-raised from inside the handler: an error kept in a local
            # past it would hold its own traceback's frames (a cycle).
            if attempt == attempts - 1:
                raise
            if ctx is not None and ctx.err() is not None:
                raise
            policy.sleep()
    raise AssertionError("unreachable: the last attempt re-raises")


class CircuitOpen(SimulatorError):
    """Raised by :meth:`CircuitBreaker.call` while the circuit is open."""


class CircuitBreaker:
    """Fail fast after repeated failures; probe again after a cooldown.

    closed --(``threshold`` consecutive failures)--> open
    open --(``cooldown`` virtual seconds)--> half-open
    half-open --success--> closed, --failure--> open
    """

    def __init__(self, rt, threshold: int = 3, cooldown: float = 1.0,
                 failure_on: Tuple[Type[BaseException], ...] = (SimulatorError,),
                 name: str = "breaker"):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self._rt = rt
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self.failure_on = failure_on
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if self._rt.now() - self.opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def call(self, fn: Callable[[], Any]) -> Any:
        if self.state == "open":
            raise CircuitOpen(f"{self.name}: circuit open")
        try:
            result = fn()
        except self.failure_on:
            self._record_failure()
            raise
        self.failures = 0
        self.opened_at = None
        return result

    def _record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold or self.opened_at is not None:
            if self.opened_at is None:
                self.trips += 1
            self.opened_at = self._rt.now()

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.name} {self.state} failures={self.failures}>"
