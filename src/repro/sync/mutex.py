"""``sync.Mutex``.

Non-reentrant, like Go's: a goroutine locking a mutex it already holds
blocks forever (the classic double-lock blocking bug, 28 of the paper's 85
blocking bugs are Mutex misuse).  Unlocking an unlocked mutex is a fatal
error in Go; we model it as a panic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from ..runtime.errors import GoPanic
from ..runtime.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime


class _Ticket:
    __slots__ = ("goroutine", "granted")

    def __init__(self, goroutine):
        self.goroutine = goroutine
        self.granted = False


class Mutex:
    """Mutual exclusion lock.  Usable as a context manager."""

    __slots__ = ("_rt", "_sched", "id", "name", "_locked", "_owner",
                 "_waiters", "_reason")

    def __init__(self, rt: "Runtime", name: Optional[str] = None):
        self._rt = rt
        self._sched = rt.sched
        self.id = rt.new_obj_id()
        self.name = name or f"mutex#{self.id}"
        self._locked = False
        self._owner: Optional[int] = None  # diagnostics only; Go allows
        self._waiters: Deque[_Ticket] = deque()  # cross-goroutine unlock
        self._reason = f"mutex.lock:{self.name}"

    @property
    def locked(self) -> bool:
        return self._locked

    def lock(self) -> None:
        """Acquire, like ``mu.Lock()``; blocks while held (even by self)."""
        self._sched.schedule_point()
        me = self._sched.current
        # The *request* is observable even if the acquisition never
        # completes — what lock-order analysis needs.  The contention
        # profiler reads the name and queue depth off the same event.
        self._sched.emit(EventKind.MU_REQUEST, obj=self.id,
                         info={"name": self.name,
                               "waiters": len(self._waiters)})
        if not self._locked:
            self._locked = True
            self._owner = me.gid
            self._sched.emit(EventKind.MU_LOCK, obj=self.id)
            return
        ticket = _Ticket(me)
        self._waiters.append(ticket)
        while not ticket.granted:
            self._sched.block(self._reason, obj=self.id)
        # Ownership was handed off directly by unlock(); just record it.
        self._sched.emit(EventKind.MU_LOCK, obj=self.id)

    def try_lock(self) -> bool:
        """Non-blocking acquire, like ``mu.TryLock()``."""
        self._sched.schedule_point()
        if self._locked:
            return False
        self._locked = True
        self._owner = self._sched.current.gid
        self._sched.emit(EventKind.MU_LOCK, obj=self.id)
        return True

    def unlock(self) -> None:
        """Release, like ``mu.Unlock()``.  Panics if not locked."""
        self._sched.schedule_point()
        if not self._locked:
            raise GoPanic("sync: unlock of unlocked mutex")
        self._sched.emit(EventKind.MU_UNLOCK, obj=self.id)
        if self._waiters:
            # Direct handoff: the mutex stays locked and ownership moves to
            # the first waiter, so nobody can barge in between.
            ticket = self._waiters.popleft()
            ticket.granted = True
            self._owner = ticket.goroutine.gid
            self._sched.ready(ticket.goroutine)
        else:
            self._locked = False
            self._owner = None

    # Context-manager sugar for the common lock/defer-unlock pattern.
    def __enter__(self) -> "Mutex":
        self.lock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unlock()

    def __repr__(self) -> str:
        state = f"locked by g{self._owner}" if self._locked else "unlocked"
        return f"<Mutex {self.name} {state}>"
