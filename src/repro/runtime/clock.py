"""Virtual time.

The simulator never consults the wall clock.  A :class:`VirtualClock` owns
"now" and a heap of pending timers; when the scheduler finds no runnable
goroutine it advances the clock to the earliest deadline and fires the timer
callbacks.  This makes every timeout-dependent bug in the corpus (Figure 1's
``time.After`` race, Figure 12's ``Timer(0)``, ``context.WithTimeout``)
deterministic and instantaneous.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple


class TimerHandle:
    """A cancellable entry in the virtual-clock timer heap.

    A handle drops its callback once it is cancelled or has fired: the
    callback is usually a bound method of the object that holds the handle
    (a ``Timer``, ``Ticker`` or timeout context), and keeping it would tie
    the two into a reference cycle.
    """

    __slots__ = ("deadline", "callback", "cancelled", "seq")

    def __init__(self, deadline: float, seq: int, callback: Callable[[], None]):
        self.deadline = deadline
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> bool:
        """Cancel the timer.  Returns True if it had not fired/cancelled yet."""
        if self.cancelled:
            return False
        self.cancelled = True
        self.callback = None
        return True


class VirtualClock:
    """Discrete-event virtual clock with a cancellable timer heap."""

    def __init__(self, start: float = 0.0):
        #: Current virtual time in seconds.  A plain attribute because every
        #: send, receive and ``rt.now()`` reads it; only this class's own
        #: methods write it.
        self.now = float(start)
        self._heap: List[Tuple[float, int, TimerHandle]] = []
        self._seq = itertools.count()

    def call_at(self, deadline: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run when the clock reaches ``deadline``.

        Deadlines in the past fire on the next scheduler idle point.
        """
        handle = TimerHandle(max(deadline, self.now), next(self._seq), callback)
        heapq.heappush(self._heap, (handle.deadline, handle.seq, handle))
        return handle

    def call_after(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        return self.call_at(self.now + max(delay, 0.0), callback)

    def advance_to_next(self) -> List[TimerHandle]:
        """Jump to the earliest deadline and pop every timer due at it.

        Returns the fired handles, or ``[]`` when nothing is pending
        (callbacks are *not* run here; the scheduler runs them so it can
        interleave wakeups correctly).  One pass: cancelled heads are
        dropped on the way to the first live deadline.
        """
        heap = self._heap
        while heap:
            deadline, _, head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            if deadline > self.now:
                self.now = deadline
            return self._pop_due()
        return []

    def advance(self, delta: float) -> List[TimerHandle]:
        """Advance the clock by ``delta`` and pop every timer now due."""
        self.now += max(delta, 0.0)
        return self._pop_due()

    def clear(self) -> None:
        """Drop every pending timer and its callback (end-of-run teardown)."""
        for _, _, handle in self._heap:
            handle.cancelled = True
            handle.callback = None
        self._heap.clear()

    def _pop_due(self) -> List[TimerHandle]:
        due: List[TimerHandle] = []
        heap, now = self._heap, self.now
        while heap and heap[0][0] <= now:
            _, _, handle = heapq.heappop(heap)
            if not handle.cancelled:
                handle.cancelled = True  # a fired timer cannot be cancelled
                due.append(handle)
        return due
