"""Goroutine runtime substrate: scheduler, goroutines, virtual clock, traces."""

from .clock import TimerHandle, VirtualClock
from .errors import (
    DeadlockError,
    GoPanic,
    Killed,
    SchedulerStateError,
    SimulatorError,
)
from .goroutine import Goroutine, GState
from .runtime import Runtime, RunResult, explore, run
from .scheduler import Scheduler
from .trace import EventKind, Trace, TraceEvent

__all__ = [
    "DeadlockError",
    "EventKind",
    "GState",
    "GoPanic",
    "Goroutine",
    "Killed",
    "RunResult",
    "Runtime",
    "Scheduler",
    "SchedulerStateError",
    "SimulatorError",
    "TimerHandle",
    "Trace",
    "TraceEvent",
    "VirtualClock",
    "explore",
    "run",
]
