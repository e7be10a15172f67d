"""The self-overhead accountant: what does watching a run cost?

An observability layer for a *deterministic* runtime gets to make a claim
ordinary profilers cannot: observation is provably inert.  This module
measures both halves of that claim for a given program:

* **inertness** — the observed run's schedule fingerprint (the exact
  ``(step, gid, kind, obj)`` sequence) is identical to the unobserved
  run's, and
* **cost** — wall-clock overhead ratio of observed vs. unobserved runs,
  best-of-N to damp host noise.

Wall-clock times are the only nondeterministic values in this subsystem
and are clearly segregated here; they never enter a metrics dump.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..runtime.runtime import RunResult, run
from .observer import Observer


def schedule_fingerprint(result: RunResult) -> Tuple[Tuple[int, int, str, Any], ...]:
    """The schedule-defining projection of a trace.

    Event ``info`` is deliberately excluded: observation adds attribution
    fields (sites, stacks) to block events without altering what ran when.
    """
    if result.trace is None:
        raise ValueError("fingerprinting needs keep_trace=True")
    return tuple((step, gid, kind, obj) for step, _time, gid, kind, obj, _info
                 in result.trace.records())


@dataclass
class OverheadReport:
    """Measured cost of observing one program at one seed."""

    program: str
    seed: int
    repeats: int
    base_seconds: float          # best-of-N unobserved wall time
    observed_seconds: float      # best-of-N observed wall time
    steps: int
    identical_schedule: bool

    @property
    def ratio(self) -> float:
        if self.base_seconds <= 0:
            return 1.0
        return self.observed_seconds / self.base_seconds

    def render(self) -> str:
        verdict = "identical" if self.identical_schedule else "DIVERGED"
        return (f"observer overhead [{self.program} seed={self.seed}]: "
                f"{self.base_seconds * 1e3:.2f}ms -> "
                f"{self.observed_seconds * 1e3:.2f}ms "
                f"({self.ratio:.2f}x over {self.steps} steps, "
                f"best of {self.repeats}; schedule {verdict})")

    def to_dict(self) -> dict:
        return {"program": self.program, "seed": self.seed,
                "repeats": self.repeats,
                "base_seconds": self.base_seconds,
                "observed_seconds": self.observed_seconds,
                "ratio": self.ratio, "steps": self.steps,
                "identical_schedule": self.identical_schedule}


def measure_overhead(program: Callable[..., Any], seed: int = 0,
                     repeats: int = 3,
                     observer_factory: Optional[Callable[[], Observer]] = None,
                     name: Optional[str] = None,
                     **run_kwargs: Any) -> OverheadReport:
    """Time ``program`` unobserved and observed; verify schedules match.

    The observed run uses a fresh observer per repeat (observers are
    single-run by contract).  ``run_kwargs`` pass through to
    :func:`repro.run` for both variants.
    """
    factory = observer_factory or Observer
    run_kwargs.setdefault("keep_trace", True)

    base_times: List[float] = []
    base_result: Optional[RunResult] = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        base_result = run(program, seed=seed, **run_kwargs)
        base_times.append(time.perf_counter() - t0)

    observed_times: List[float] = []
    observed_result: Optional[RunResult] = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        observed_result = run(program, seed=seed, observe=factory(),
                              **run_kwargs)
        observed_times.append(time.perf_counter() - t0)

    assert base_result is not None and observed_result is not None
    identical = (schedule_fingerprint(base_result)
                 == schedule_fingerprint(observed_result))
    return OverheadReport(
        program=name or getattr(program, "__name__", "program"),
        seed=seed,
        repeats=repeats,
        base_seconds=min(base_times),
        observed_seconds=min(observed_times),
        steps=base_result.steps,
        identical_schedule=identical,
    )
