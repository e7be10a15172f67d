"""Go channels.

Semantics implemented (each is load-bearing for at least one studied bug):

* Unbuffered channels rendezvous: a send blocks until a receiver takes the
  value, and vice versa (Figure 1's leak needs this).
* Buffered channels block senders only when full and receivers only when
  empty and open.
* Receiving from a closed channel drains the buffer, then yields
  ``(zero, ok=False)`` immediately.
* Sending on a closed channel panics; closing a closed channel panics
  (Figure 10's double-close bug).
* Nil channels block every operation forever.

The zero value returned on a closed, drained receive is ``None``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple, TYPE_CHECKING

from ..runtime.errors import GoPanic
from ..runtime.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime


class _Waiter:
    """A goroutine (or one select case) parked on a channel queue."""

    __slots__ = (
        "goroutine",
        "is_send",
        "payload",
        "value",
        "ok",
        "completed",
        "select_ctx",
        "case_index",
    )

    def __init__(self, goroutine, is_send: bool, payload: Any = None,
                 select_ctx=None, case_index: int = -1):
        self.goroutine = goroutine
        self.is_send = is_send
        self.payload = payload        # value being sent (send waiters)
        self.value: Any = None        # value received (recv waiters)
        self.ok: Optional[bool] = None
        self.completed = False
        self.select_ctx = select_ctx  # _SelectContext when part of a select
        self.case_index = case_index

    def claim(self) -> bool:
        """Try to take ownership of this waiter for completion.

        Plain waiters can always be claimed once; select waiters can be
        claimed only if their select has not been won by another case.
        """
        if self.completed:
            return False
        if self.select_ctx is not None:
            return self.select_ctx.try_win(self.case_index)
        return True

    @property
    def dead(self) -> bool:
        """True when the waiter can never complete (its select already won)."""
        if self.completed:
            return True
        return self.select_ctx is not None and self.select_ctx.winner is not None


class Channel:
    """A Go channel of any element type.

    Use :meth:`send` / :meth:`recv` for the blocking operations, and
    :meth:`try_send` / :meth:`try_recv` for the non-blocking forms that a
    ``select`` with ``default`` would express.
    """

    __slots__ = (
        "_rt",
        "_sched",
        "capacity",
        "name",
        "id",
        "_buf",
        "_send_waiters",
        "_recv_waiters",
        "_closed",
        "_send_seq",
        "_reason_send",
        "_reason_recv",
    )

    def __init__(self, rt: "Runtime", capacity: int = 0, name: Optional[str] = None):
        if capacity < 0:
            raise ValueError("negative channel capacity")
        self._rt = rt
        self._sched = rt.sched
        self.capacity = capacity
        self.name = name or f"chan#{rt._next_obj_id}"
        self.id = rt.new_obj_id()
        self._buf: Deque[Any] = deque()
        self._send_waiters: Deque[_Waiter] = deque()
        self._recv_waiters: Deque[_Waiter] = deque()
        self._closed = False
        self._send_seq = 0  # per-message sequence for happens-before pairing
        self._reason_send = f"chan.send:{self.name}"
        self._reason_recv = f"chan.recv:{self.name}"
        self._sched.emit(EventKind.CHAN_MAKE, obj=self.id,
                         info={"capacity": capacity, "name": self.name})

    # ------------------------------------------------------------------
    # Introspection (Go's len() and cap())
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf)

    def cap(self) -> int:
        return self.capacity

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Waiter-queue helpers
    # ------------------------------------------------------------------

    def _pop_claimable(self, queue: Deque[_Waiter]) -> Optional[_Waiter]:
        while queue:
            waiter = queue[0]
            if waiter.dead:
                queue.popleft()
                continue
            if waiter.claim():
                queue.popleft()
                return waiter
            queue.popleft()  # lost select: discard
        return None

    def _discard(self, waiter: _Waiter) -> None:
        for queue in (self._send_waiters, self._recv_waiters):
            try:
                queue.remove(waiter)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------

    def _emit_send(self, gid: int, seq: int, sync: bool, partner: Optional[int] = None) -> None:
        info = {"seq": seq, "sync": sync}
        if partner is not None:
            info["partner"] = partner
        self._sched.emit(EventKind.CHAN_SEND, obj=self.id, info=info, gid=gid)

    def _emit_recv(self, gid: int, seq: Optional[int], sync: bool,
                   closed: bool = False, partner: Optional[int] = None) -> None:
        info: dict = {"sync": sync, "closed": closed}
        if seq is not None:
            info["seq"] = seq
        if partner is not None:
            info["partner"] = partner
        self._sched.emit(EventKind.CHAN_RECV, obj=self.id, info=info, gid=gid)

    # ------------------------------------------------------------------
    # Non-blocking cores (shared by blocking ops, select, and try_*)
    # ------------------------------------------------------------------

    def poll_send(self, value: Any, gid: int) -> bool:
        """Attempt a send without blocking.  True when it completed.

        Panics if the channel is closed (matching ``select`` readiness: a
        send on a closed channel is always "ready" and panics when chosen).
        """
        if self._closed:
            raise GoPanic("send on closed channel")
        waiter = self._pop_claimable(self._recv_waiters)
        if waiter is not None:
            seq = self._next_seq()
            waiter.value = value
            waiter.ok = True
            waiter.completed = True
            self._emit_send(gid, seq, sync=True, partner=waiter.goroutine.gid)
            self._emit_recv(waiter.goroutine.gid, seq, sync=True, partner=gid)
            self._complete_recv_side(waiter, seq, sync=True, sender_gid=gid)
            self._sched.ready(waiter.goroutine)
            return True
        if len(self._buf) < self.capacity:
            seq = self._next_seq()
            self._buf.append((seq, value))
            self._emit_send(gid, seq, sync=False)
            return True
        return False

    def poll_recv(self, gid: int) -> Optional[Tuple[Any, bool]]:
        """Attempt a receive without blocking.  None when it would block."""
        if self._buf:
            seq, value = self._buf.popleft()
            self._emit_recv(gid, seq, sync=False)
            # A sender blocked on a full buffer can now complete.
            waiter = self._pop_claimable(self._send_waiters)
            if waiter is not None:
                wseq = self._next_seq()
                self._buf.append((wseq, waiter.payload))
                waiter.ok = True
                waiter.completed = True
                self._emit_send(waiter.goroutine.gid, wseq, sync=False)
                self._complete_send_side(waiter)
                self._sched.ready(waiter.goroutine)
            return value, True
        waiter = self._pop_claimable(self._send_waiters)
        if waiter is not None:
            # Rendezvous with a blocked sender (unbuffered channel).
            seq = self._next_seq()
            waiter.ok = True
            waiter.completed = True
            self._emit_send(waiter.goroutine.gid, seq, sync=True, partner=gid)
            self._emit_recv(gid, seq, sync=True, partner=waiter.goroutine.gid)
            self._complete_send_side(waiter)
            self._sched.ready(waiter.goroutine)
            return waiter.payload, True
        if self._closed:
            self._emit_recv(gid, None, sync=False, closed=True)
            return None, False
        return None

    def can_send_now(self) -> bool:
        """Would a send complete (or panic) immediately?"""
        if self._closed:
            return True  # "ready": completing panics, as in Go's select
        if any(not w.dead for w in self._recv_waiters):
            return True
        return len(self._buf) < self.capacity

    def can_recv_now(self) -> bool:
        """Would a receive complete immediately?"""
        if self._buf:
            return True
        if any(not w.dead for w in self._send_waiters):
            return True
        return self._closed

    def _next_seq(self) -> int:
        self._send_seq += 1
        return self._send_seq

    def _complete_recv_side(self, waiter: _Waiter, seq: int, sync: bool, sender_gid: int) -> None:
        """Propagate a completed receive into a waiting select, if any."""
        if waiter.select_ctx is not None:
            waiter.select_ctx.value = waiter.value
            waiter.select_ctx.ok = True

    def _complete_send_side(self, waiter: _Waiter) -> None:
        if waiter.select_ctx is not None:
            waiter.select_ctx.value = None
            waiter.select_ctx.ok = True

    # ------------------------------------------------------------------
    # Blocking operations
    # ------------------------------------------------------------------

    def send(self, value: Any) -> None:
        """Send ``value``; blocks per Go semantics.  Panics if closed."""
        self._sched.schedule_point()
        me = self._sched.current
        while True:
            if self.poll_send(value, me.gid):
                return
            waiter = _Waiter(me, is_send=True, payload=value)
            self._send_waiters.append(waiter)
            self._sched.block(self._reason_send, obj=self.id)
            if waiter.completed:
                if waiter.ok is False:
                    raise GoPanic("send on closed channel")
                return
            self._discard(waiter)  # spurious wakeup: retry from the top

    def recv(self) -> Any:
        """Receive a value, like ``<-ch``.  Returns None once closed+drained."""
        value, _ok = self.recv_ok()
        return value

    def recv_ok(self) -> Tuple[Any, bool]:
        """Receive with the open flag, like ``v, ok := <-ch``."""
        self._sched.schedule_point()
        me = self._sched.current
        while True:
            outcome = self.poll_recv(me.gid)
            if outcome is not None:
                return outcome
            waiter = _Waiter(me, is_send=False)
            self._recv_waiters.append(waiter)
            self._sched.block(self._reason_recv, obj=self.id)
            if waiter.completed:
                return waiter.value, bool(waiter.ok)
            self._discard(waiter)

    # ------------------------------------------------------------------
    # Non-blocking operations (select-with-default shorthand)
    # ------------------------------------------------------------------

    def try_send(self, value: Any) -> bool:
        """Non-blocking send: ``select { case ch <- v: ... default: }``."""
        self._sched.schedule_point()
        return self.poll_send(value, self._sched.current_gid)

    def try_recv(self) -> Tuple[Any, bool, bool]:
        """Non-blocking receive.  Returns ``(value, ok, received)``."""
        self._sched.schedule_point()
        outcome = self.poll_recv(self._sched.current_gid)
        if outcome is None:
            return None, False, False
        value, ok = outcome
        return value, ok, True

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the channel.  Panics on double close (Figure 10)."""
        self._sched.schedule_point()
        if self._closed:
            raise GoPanic("close of closed channel")
        self._closed = True
        self._sched.emit(EventKind.CHAN_CLOSE, obj=self.id)
        # Every parked receiver observes the close...
        while True:
            waiter = self._pop_claimable(self._recv_waiters)
            if waiter is None:
                break
            waiter.value = None
            waiter.ok = False
            waiter.completed = True
            if waiter.select_ctx is not None:
                waiter.select_ctx.value = None
                waiter.select_ctx.ok = False
            self._emit_recv(waiter.goroutine.gid, None, sync=False, closed=True)
            self._sched.ready(waiter.goroutine)
        # ...and every parked sender panics.
        while True:
            waiter = self._pop_claimable(self._send_waiters)
            if waiter is None:
                break
            waiter.ok = False
            waiter.completed = True
            if waiter.select_ctx is not None:
                waiter.select_ctx.value = None
                waiter.select_ctx.ok = False
            self._sched.ready(waiter.goroutine)

    # ------------------------------------------------------------------
    # Iteration: ``for v := range ch``
    # ------------------------------------------------------------------

    def __iter__(self):
        while True:
            value, ok = self.recv_ok()
            if not ok:
                return
            yield value

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<Channel {self.name} cap={self.capacity} len={len(self._buf)} {state}>"


class NilChannel:
    """A nil channel: all operations block forever; close panics.

    In ``select``, cases on a nil channel are never ready (the standard
    Go idiom of disabling a case by nil-ing its channel works).
    """

    def __init__(self, rt: "Runtime"):
        self._rt = rt
        self._sched = rt.sched
        self.id = rt.new_obj_id()
        self.name = "nil"
        self.capacity = 0
        self._closed = False

    def __len__(self) -> int:
        return 0

    def cap(self) -> int:
        return 0

    @property
    def closed(self) -> bool:
        return False

    def _block_forever(self, reason: str) -> None:
        while True:
            self._sched.block(reason)

    def send(self, value: Any) -> None:
        self._sched.schedule_point()
        self._block_forever("chan.send:nil")

    def recv(self) -> Any:
        self._sched.schedule_point()
        self._block_forever("chan.recv:nil")

    def recv_ok(self) -> Tuple[Any, bool]:
        self.recv()
        raise AssertionError("unreachable")  # pragma: no cover

    def try_send(self, value: Any) -> bool:
        return False

    def try_recv(self) -> Tuple[Any, bool, bool]:
        return None, False, False

    def can_send_now(self) -> bool:
        return False

    def can_recv_now(self) -> bool:
        return False

    def close(self) -> None:
        raise GoPanic("close of nil channel")

    def __repr__(self) -> str:
        return "<NilChannel>"
