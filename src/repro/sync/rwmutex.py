"""``sync.RWMutex`` with Go's writer-priority rule.

The detail the paper highlights (Section 5.1.1): in Go, a *pending* write
lock blocks **new** read lock requests, even from a goroutine that already
holds a read lock.  So the interleaving

    g1: RLock()            -> succeeds (readers = 1)
    g2: Lock()             -> waits for g1's read lock, blocks new readers
    g1: RLock()            -> blocks behind g2's pending write lock

deadlocks in Go (5 of the studied bugs), while C's ``pthread_rwlock_t``
default reader-preference would let g1's second RLock through.  Construct
with ``writer_priority=False`` to get the pthread behavior — the ablation
benchmark shows the deadlock disappear.
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


class RWMutex:
    """Reader/writer mutual exclusion lock."""

    __slots__ = ("_rt", "_sched", "id", "name", "writer_priority", "_readers",
                 "_writer", "_pending_writers", "_pending_readers",
                 "_reason_r", "_reason_w")

    def __init__(self, rt: "Runtime", name: Optional[str] = None,
                 writer_priority: bool = True):
        self._rt = rt
        self._sched = rt.sched
        self.id = rt.new_obj_id()
        self.name = name or f"rwmutex#{self.id}"
        #: Go semantics when True; pthread reader-preference when False.
        self.writer_priority = writer_priority
        self._readers = 0
        self._writer = False
        self._pending_writers: Deque[_Ticket] = deque()
        self._pending_readers: Deque[_Ticket] = deque()
        self._reason_r = f"rwmutex.rlock:{self.name}"
        self._reason_w = f"rwmutex.lock:{self.name}"

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def rlock(self) -> None:
        """Acquire a read lock, like ``mu.RLock()``."""
        self._sched.schedule_point()
        me = self._sched.current
        if self._can_rlock_now():
            self._readers += 1
            self._sched.emit(EventKind.RW_RLOCK, obj=self.id)
            return
        ticket = _Ticket(me)
        self._pending_readers.append(ticket)
        while not ticket.granted:
            self._sched.block(self._reason_r, obj=self.id)
        self._sched.emit(EventKind.RW_RLOCK, obj=self.id)

    def runlock(self) -> None:
        """Release a read lock, like ``mu.RUnlock()``."""
        self._sched.schedule_point()
        if self._readers <= 0:
            raise GoPanic("sync: RUnlock of unlocked RWMutex")
        self._readers -= 1
        self._sched.emit(EventKind.RW_RUNLOCK, obj=self.id)
        if self._readers == 0:
            self._promote(prefer_readers=False)

    def _can_rlock_now(self) -> bool:
        if self._writer:
            return False
        if self.writer_priority and self._pending_writers:
            return False
        return True

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def lock(self) -> None:
        """Acquire the write lock, like ``mu.Lock()``."""
        self._sched.schedule_point()
        me = self._sched.current
        self._sched.emit(EventKind.RW_REQUEST, obj=self.id,
                         info={"name": self.name,
                               "waiters": len(self._pending_writers)})
        if not self._writer and self._readers == 0:
            self._writer = True
            self._sched.emit(EventKind.RW_LOCK, obj=self.id)
            return
        ticket = _Ticket(me)
        self._pending_writers.append(ticket)
        while not ticket.granted:
            self._sched.block(self._reason_w, obj=self.id)
        self._sched.emit(EventKind.RW_LOCK, obj=self.id)

    def unlock(self) -> None:
        """Release the write lock, like ``mu.Unlock()``."""
        self._sched.schedule_point()
        if not self._writer:
            raise GoPanic("sync: Unlock of unlocked RWMutex")
        self._writer = False
        self._sched.emit(EventKind.RW_UNLOCK, obj=self.id)
        # Go lets readers that queued behind the writer go first, avoiding
        # reader starvation.
        self._promote(prefer_readers=True)

    # ------------------------------------------------------------------

    def _promote(self, prefer_readers: bool) -> None:
        """Grant the lock to pending parties after a release."""
        if self._writer:
            return
        if prefer_readers and self._pending_readers:
            self._grant_all_readers()
            return
        if self._readers == 0 and self._pending_writers:
            ticket = self._pending_writers.popleft()
            self._writer = True
            ticket.granted = True
            self._sched.ready(ticket.goroutine)
            return
        if self._pending_readers and not (self.writer_priority and self._pending_writers):
            self._grant_all_readers()

    def _grant_all_readers(self) -> None:
        while self._pending_readers:
            ticket = self._pending_readers.popleft()
            self._readers += 1
            ticket.granted = True
            self._sched.ready(ticket.goroutine)

    # ------------------------------------------------------------------
    # Context-manager helpers
    # ------------------------------------------------------------------

    def __enter__(self) -> "RWMutex":
        self.lock()
        return self

    def __exit__(self, *exc) -> None:
        self.unlock()

    class _ReadGuard:
        def __init__(self, rw: "RWMutex"):
            self._rw = rw

        def __enter__(self):
            self._rw.rlock()
            return self._rw

        def __exit__(self, *exc) -> None:
            self._rw.runlock()

    def rlocker(self) -> "_ReadGuard":
        """Context manager for the read side: ``with mu.rlocker(): ...``."""
        return RWMutex._ReadGuard(self)

    def __repr__(self) -> str:
        if self._writer:
            state = "write-locked"
        elif self._readers:
            state = f"{self._readers} readers"
        else:
            state = "unlocked"
        return f"<RWMutex {self.name} {state} pending_w={len(self._pending_writers)}>"
