"""Virtual time.

The simulator never consults the wall clock.  A :class:`VirtualClock` owns
"now" and a heap of pending timers; when the scheduler finds no runnable
goroutine it advances the clock to the earliest deadline and fires the timer
callbacks.  This makes every timeout-dependent bug in the corpus (Figure 1's
``time.After`` race, Figure 12's ``Timer(0)``, ``context.WithTimeout``)
deterministic and instantaneous.

A timer is one heap entry: the :class:`TimerHandle` itself, a three-item
list ``[deadline, seq, callback]``.  Lists compare item by item in C, so the
heap pops in ``(deadline, seq)`` order — creation order among equal
deadlines — without a wrapper tuple or a Python ``__lt__``; ``seq`` is
unique, so the callback is never compared.  The compiled drive loop
(``_ext/_hotloop.c``) reads the same three slots when it fires timers
itself.

The callback slot holds what fires: a zero-argument callable, or, for a
sleeper (``Runtime.sleep``, ``Runtime.external_wait`` with a duration),
the sleeping goroutine itself.  ``Scheduler.park_timer`` arms a sleeper's
entry with one :meth:`VirtualClock.call_at` (its delay clamped at zero as
:meth:`VirtualClock.call_after` would) in the same frame that records the
park and yields.  The clock never looks inside the slot; the scheduler
readies a goroutine and calls anything else (``Scheduler.fire_timers``),
and the compiled drive loop does the same in C: it wakes a sleeper with
no Python call and calls any other callback directly.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, List

Callback = Callable[[], None]

#: What a timer's callback slot holds: a :data:`Callback`, or a sleeping
#: goroutine for the scheduler to ready.
Entry = Any


class TimerHandle(list):
    """A cancellable entry in the virtual-clock timer heap.

    ``[deadline, seq, callback]``, built by :meth:`VirtualClock.call_at`
    through ``list``'s own constructor (no Python ``__init__`` frame).  The
    callback slot holds a callable, or the sleeping goroutine of a
    sleeper's wake entry.  It is None once the timer is cancelled or has
    fired: the callback is usually a bound method of the object that holds
    the handle (a ``Timer``, ``Ticker`` or timeout context), and keeping it
    would tie the two into a reference cycle.
    """

    __slots__ = ()

    deadline = property(itemgetter(0), doc="Virtual time the timer fires at.")
    callback = property(itemgetter(2),
                        doc="What fires, or None once fired or cancelled.")

    @property
    def cancelled(self) -> bool:
        """True once the timer was cancelled or has fired."""
        return self[2] is None

    def cancel(self) -> bool:
        """Cancel the timer.  Returns True if it had not fired/cancelled yet."""
        if self[2] is None:
            return False
        self[2] = None
        return True


class VirtualClock:
    """Discrete-event virtual clock with a cancellable timer heap."""

    def __init__(self, start: float = 0.0):
        #: Current virtual time in seconds.  A plain attribute because every
        #: send, receive and ``rt.now()`` reads it; only this class's own
        #: methods and the compiled drive loop write it.
        self.now = float(start)
        self._heap: List[TimerHandle] = []
        self._seq = itertools.count()

    def call_at(self, deadline: float, callback: Entry) -> TimerHandle:
        """Schedule ``callback`` to fire when the clock reaches ``deadline``.

        Deadlines in the past fire on the next scheduler idle point.  A
        non-finite deadline raises ``ValueError``: a NaN compares false
        against every time, so at the heap head it would stop the clock
        for good, and an infinite one would jump the clock to ``inf``.
        """
        if not isfinite(deadline):
            raise ValueError(f"timer deadline is not finite: {deadline!r}")
        # A compare, not ``max()``: this runs once per timer armed.
        now = self.now
        if deadline < now:
            deadline = now
        handle = TimerHandle((deadline, next(self._seq), callback))
        heappush(self._heap, handle)
        return handle

    def call_after(self, delay: float, callback: Entry) -> TimerHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now (a
        negative delay fires it now)."""
        if delay < 0.0:
            delay = 0.0
        return self.call_at(self.now + delay, callback)

    def advance_to_next(self) -> List[Entry]:
        """Jump to the earliest deadline and pop every timer due at it.

        Returns the callbacks of the fired timers, or ``[]`` when nothing is
        pending (callbacks are *not* run here; the scheduler runs them so it
        can interleave wakeups correctly).  One pass: cancelled heads are
        dropped on the way to the first live deadline.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is None:
                heappop(heap)
                continue
            if head[0] > self.now:
                self.now = head[0]
            return self._pop_due()
        return []

    def advance(self, delta: float) -> List[Entry]:
        """Advance the clock by ``delta`` and pop every timer now due."""
        self.now += max(delta, 0.0)
        return self._pop_due()

    def clear(self) -> None:
        """Drop every pending timer and its callback (end-of-run teardown)."""
        for handle in self._heap:
            handle[2] = None
        self._heap.clear()

    def _pop_due(self) -> List[Entry]:
        """Pop every entry due now and mark each fired (callback slot None)
        before any callback runs, so a callback cannot cancel a timer due
        at the same time."""
        due: List[Entry] = []
        heap, now = self._heap, self.now
        while heap and heap[0][0] <= now:
            handle = heappop(heap)
            callback = handle[2]
            if callback is not None:
                handle[2] = None
                due.append(callback)
        return due
