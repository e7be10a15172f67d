"""``time`` — timers and tickers on the virtual clock.

The subtlety behind Figure 12's bug is preserved: ``NewTimer(d)`` starts
counting down *at creation*, and ``NewTimer(0)`` delivers on ``timer.C``
essentially immediately, so code that creates a zero timer "just in case"
returns prematurely.  Timer delivery uses a capacity-1 channel with a
non-blocking send, exactly like Go's ``sendTime``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..chan import Channel

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime


class Timer:
    """One-shot timer, like ``time.Timer``.  The channel is ``timer.c``."""

    def __init__(self, rt: "Runtime", duration: float):
        self._rt = rt
        self._sched = rt.sched
        #: Delivery channel (Go's ``timer.C``): capacity 1, receives the
        #: virtual fire time.
        self.c = Channel(rt, 1, name="timer.C")
        self._fired = False
        self._handle = self._arm(duration)

    def _arm(self, duration: float):
        return self._sched.clock.call_after(duration, self._fire)

    def _fire(self) -> None:
        self._fired = True
        # Non-blocking send: if nobody drained the previous value, drop.
        self.c.poll_send(self._sched.clock.now, gid=0)

    def stop(self) -> bool:
        """Stop the timer, like ``timer.Stop()``.

        Returns False when the timer already fired — and, as in Go, does
        *not* drain ``timer.c``.
        """
        return self._handle.cancel()

    def reset(self, duration: float) -> bool:
        """Re-arm, like ``timer.Reset(d)``.

        Returns True when the timer was still active.  Carries Go's trap:
        a value from the previous expiry may still sit in ``timer.c``.
        """
        active = self._handle.cancel()
        self._fired = False
        self._handle = self._arm(duration)
        return active

    @property
    def fired(self) -> bool:
        return self._fired

    def __repr__(self) -> str:
        return f"<Timer fired={self._fired}>"


class Ticker:
    """Repeating ticker, like ``time.Ticker``.

    Delivery matches Go: capacity-1 channel, non-blocking send, so slow
    receivers *miss* ticks rather than queueing them.
    """

    def __init__(self, rt: "Runtime", interval: float):
        if interval <= 0:
            raise ValueError("non-positive interval for Ticker")
        self._rt = rt
        self._sched = rt.sched
        self.interval = interval
        self.c = Channel(rt, 1, name="ticker.C")
        self._stopped = False
        self._handle = self._sched.clock.call_after(interval, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.c.poll_send(self._sched.clock.now, gid=0)
        self._handle = self._sched.clock.call_after(self.interval, self._tick)

    def stop(self) -> None:
        """Stop, like ``ticker.Stop()``.  Does not close ``ticker.c``."""
        self._stopped = True
        self._handle.cancel()

    def reset(self, interval: float) -> None:
        if interval <= 0:
            raise ValueError("non-positive interval for Ticker")
        self.interval = interval
        self._handle.cancel()
        self._stopped = False
        self._handle = self._sched.clock.call_after(interval, self._tick)

    def __repr__(self) -> str:
        return f"<Ticker every {self.interval:g}s stopped={self._stopped}>"
