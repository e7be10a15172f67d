"""Exception hierarchy for the Go-concurrency simulator.

The simulator mirrors Go's failure modes:

* ``GoPanic`` corresponds to a Go ``panic``.  An unrecovered panic in any
  goroutine aborts the whole run, exactly as in Go.
* ``DeadlockError`` corresponds to the runtime's
  ``fatal error: all goroutines are asleep - deadlock!`` report.
* ``Killed`` is host-level machinery: it unwinds goroutine threads that are
  abandoned when a run ends (leaked goroutines, panic aborts).  User code
  must never catch it.
"""

from __future__ import annotations


class SimulatorError(Exception):
    """Base class for every error raised by the simulator itself."""


class GoPanic(SimulatorError):
    """A Go ``panic``.

    Raised by primitives on rule violations (send on closed channel, close of
    closed channel, negative WaitGroup counter, ...) and by user code via
    :meth:`repro.runtime.runtime.Runtime.panic`.
    """

    def __init__(self, value: object):
        super().__init__(value)
        self.value = value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"panic: {self.value}"


class DeadlockError(SimulatorError):
    """All goroutines are asleep: the built-in detector's fatal report."""

    def __init__(self, message: str, blocked: tuple = ()):  # type: ignore[type-arg]
        super().__init__(message)
        #: Descriptions of the goroutines that were blocked at report time.
        self.blocked = tuple(blocked)


class Killed(BaseException):
    """Injected into a goroutine thread to force it to unwind.

    Derives from ``BaseException`` so ordinary ``except Exception`` blocks in
    user programs cannot swallow it.
    """


class SchedulerStateError(SimulatorError):
    """An operation was attempted outside a running goroutine context."""
