"""Goroutines as token-passing hosts (single-threaded continuations by
default, OS threads as the fallback and an opt-in mode).

Exactly one host in a simulation runs at any instant: either the scheduler
or a single goroutine holding the *token*.  Because of this one-runner
invariant, primitive state needs no host-level locking and every
interleaving is fully determined by the scheduler's seeded choices.

Two interchangeable vehicles implement the handoff:

* ``"tasklet"`` (:class:`TaskletGoroutine`): every goroutine is a
  continuation on the scheduler's own thread, provided by the in-tree
  ``repro.runtime._ext._ctasklet`` C extension (compiled lazily with the
  system toolchain; CPython 3.11 / x86-64 Linux).  The handoff is a
  userspace stack switch with no locks and no OS context switch.  This is
  what the default ``backend="coroutine"`` resolves to.
* ``"thread"`` (:class:`Goroutine`): one daemon host thread per goroutine —
  what ``"coroutine"`` falls back to when the extension cannot load, and an
  opt-in mode everywhere.  The token moves through raw ``threading.Lock``
  binary semaphores — one per goroutine plus one owned by the scheduler's
  main loop.  Handoffs are *direct*: a yielding goroutine runs the
  scheduler's per-step logic inline on its own host (see
  :meth:`Scheduler._handback`) and wakes the next goroutine's thread
  itself, so a step costs one OS context switch instead of the two a
  bounce through the scheduler thread would pay — and zero on a self-pick.

Both vehicles produce bit-identical schedules — the token protocol and the
seeded decision sequence are the same, only the vehicle differs — which the
cross-backend fingerprint tests assert over the whole kernel corpus.

A goroutine's life:

``CREATED -> RUNNABLE <-> RUNNING <-> BLOCKED`` and finally one of
``DONE | PANICKED | KILLED``.
"""

from __future__ import annotations

import threading
import traceback
import warnings
from typing import Any, Callable, Optional, Tuple

from .errors import Killed

#: How long :meth:`Goroutine.kill` waits for a host thread to unwind before
#: declaring it stuck.  A thread can outlive this when user code swallows
#: ``Killed`` (a ``BaseException``) or parks on a host-level primitive the
#: scheduler cannot interrupt; such threads are recorded on the goroutine
#: (``stuck_host_thread``) and surfaced on the :class:`RunResult` instead of
#: being dropped silently.  Override per run with
#: ``run(..., host_join_timeout=...)``; sweep workers shrink it so one
#: pathological seed cannot stall a whole sweep (see :mod:`repro.parallel`).
HOST_JOIN_TIMEOUT = 5.0

# The in-tree stack-switching extension (lazy: first use compiles it with
# the system toolchain and caches the .so; see repro.runtime._ext).
_tasklet_mod: Any = None
_tasklet_checked = False


def tasklet_module() -> Any:
    """The ``_ctasklet`` extension module, or None where unsupported."""
    global _tasklet_mod, _tasklet_checked
    if not _tasklet_checked:
        from . import _ext

        _tasklet_mod = _ext.get_ctasklet()
        _tasklet_checked = True
    return _tasklet_mod


def has_tasklet() -> bool:
    """True when the in-tree tasklet continuation vehicle is usable."""
    return tasklet_module() is not None


def _drop_tracebacks(exc: Optional[BaseException]) -> None:
    """Clear the traceback of ``exc`` and of every exception chained to it."""
    stack, seen = [exc], set()
    while stack:
        exc = stack.pop()
        if exc is None or id(exc) in seen:
            continue
        seen.add(id(exc))
        exc.__traceback__ = None
        stack += (exc.__cause__, exc.__context__)


class GState:
    """Goroutine states (plain strings for cheap comparisons and repr)."""

    CREATED = "created"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    PANICKED = "panicked"
    KILLED = "killed"

    LIVE = frozenset({CREATED, RUNNABLE, RUNNING, BLOCKED})
    TERMINAL = frozenset({DONE, PANICKED, KILLED})


class Goroutine:
    """One simulated goroutine backed by a daemon host thread.

    The scheduler interacts with it through :meth:`start`, :meth:`resume`
    and :meth:`kill`; the goroutine yields back with :meth:`yield_to_scheduler`
    (called from primitive code running on the goroutine's host).

    Token protocol (thread backend): the main loop's handoff lock and the
    goroutine's private lock are both created *held*.  ``resume`` releases
    the goroutine's lock (waking it) and blocks acquiring the main-loop
    lock; a yielding goroutine runs the scheduler's continuation
    (``Scheduler._handback``) inline on its own host, which either wakes
    the next goroutine's private lock directly, tells this host to keep
    running (self-pick), or releases the main-loop lock when the scheduler
    thread must act.  Strict alternation under the one-runner invariant
    means each lock is released exactly once per acquire.
    """

    __slots__ = (
        "gid", "fn", "args", "name", "anonymous", "creation_site",
        "state", "block_reason", "external", "panic_value",
        "panic_traceback", "result", "pending_error", "stuck_host_thread",
        "created_at", "ended_at", "mailbox",
        "_sched", "_my_lock", "_killed", "_thread",
    )

    def __init__(
        self,
        gid: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        scheduler: Any,
        name: Optional[str] = None,
        anonymous: bool = False,
        creation_site: Optional[str] = None,
    ):
        self.gid = gid
        self.fn = fn
        self.args = args
        self.name = name or getattr(fn, "__name__", "goroutine")
        #: True when created from a lambda / nested closure ("anonymous
        #: function" in the paper's Table 2 terminology).
        self.anonymous = anonymous
        #: "file:line" of the ``go()`` call, for leak reports.
        self.creation_site = creation_site

        self.state = GState.CREATED
        #: Why the goroutine is blocked (e.g. "chan.send"), for diagnostics.
        self.block_reason: Optional[str] = None
        #: True when blocked on a modelled external resource (network, disk):
        #: the built-in deadlock detector must ignore such goroutines.
        self.external = False
        self.panic_value: Optional[BaseException] = None
        self.panic_traceback: Optional[str] = None
        self.result: Any = None
        #: Exception injected by the fault injector; raised at the
        #: goroutine's next scheduling point (see ``yield_to_scheduler``).
        self.pending_error: Optional[BaseException] = None
        #: True when the host thread survived :meth:`kill`'s join timeout.
        self.stuck_host_thread = False

        # Virtual-clock bookkeeping for the Table 3 lifetime statistics.
        self.created_at: float = 0.0
        self.ended_at: Optional[float] = None

        # Mailbox used by rendezvous primitives to hand a value to a waiter.
        self.mailbox: Any = None

        #: The owning scheduler: yields run its continuation inline
        #: (``_handback``), and ``kill`` pairs with its main-loop handoff lock.
        self._sched = scheduler
        #: The host's private lock, created by :meth:`start` (thread
        #: vehicle only; a tasklet never parks on a lock).
        self._my_lock: Any = None
        self._killed = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Scheduler-side API (called with the scheduler holding the token)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Create the host thread; it immediately parks waiting for the token."""
        self._my_lock = threading.Lock()
        self._my_lock.acquire()  # created held: the host parks on it
        self._thread = threading.Thread(
            target=self._run, name=f"goroutine-{self.gid}-{self.name}", daemon=True
        )
        self.state = GState.RUNNABLE
        self._thread.start()

    def resume(self) -> None:
        """Hand the token to this goroutine; park the main loop until some
        goroutine's inline continuation decides the scheduler must act."""
        self.state = GState.RUNNING
        self._my_lock.release()
        self._sched._handoff.acquire()

    def kill(self, join_timeout: Optional[float] = None) -> None:
        """Force the goroutine's host thread to unwind (scheduler-side).

        Safe to call on a blocked or runnable goroutine; terminal goroutines
        are ignored.  Blocks until the host thread has exited — bounded by
        ``join_timeout`` (default :data:`HOST_JOIN_TIMEOUT`).  A thread that
        outlives the bound is recorded as stuck (``stuck_host_thread``) and a
        ``RuntimeWarning`` is emitted; callers surface it on the RunResult.
        """
        if self.state in GState.TERMINAL or self._thread is None:
            return
        timeout = HOST_JOIN_TIMEOUT if join_timeout is None else join_timeout
        handoff = self._sched._handoff
        self._killed = True
        # Drain a stale token return left by a previously stuck thread that
        # unwound late (the lock analogue of the old ``Event.clear()``).
        while handoff.acquire(blocking=False):
            pass
        self._my_lock.release()
        handed_back = handoff.acquire(timeout=max(timeout, 0.0))
        if handed_back:
            self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            self._mark_stuck(timeout)
            if not handed_back:
                # Keep the scheduler-holds-the-handoff invariant for the
                # next kill even though this thread never handed it back.
                handoff.acquire(blocking=False)

    def _mark_stuck(self, timeout: float) -> None:
        self.stuck_host_thread = True
        warnings.warn(
            f"goroutine {self.gid} ({self.name}): host thread did not "
            f"unwind within {timeout:g}s after kill; the thread is stuck "
            "and will be abandoned (user code may be swallowing the "
            "Killed signal or blocking outside the simulator)",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # Goroutine-side API (called on the goroutine's own host)
    # ------------------------------------------------------------------

    def yield_to_scheduler(self) -> None:
        """Give the token back and park until we are resumed.

        The scheduler's continuation runs right here, on this host: it
        either hands the token straight to the next goroutine (one OS
        switch), wakes the main loop (timers/termination), or — when the
        RNG picked *us* again — tells us to keep running without parking
        at all (zero switches).
        """
        if self._sched._handback(self, terminal=False) != "self":
            self._my_lock.acquire()
        if self._killed:
            raise Killed()
        if self.pending_error is not None:
            try:
                raise self.pending_error
            finally:
                # Not kept in a local: the frame, on the raised error's
                # traceback, would hold the error (a reference cycle).
                self.pending_error = None

    # ------------------------------------------------------------------

    def _execute(self) -> None:
        """Run the user function and classify how it ended (backend-shared)."""
        try:
            if self._killed:
                raise Killed()
            self.result = self.fn(*self.args)
            self.state = GState.DONE
        except Killed:
            self.state = GState.KILLED
        except BaseException as exc:  # GoPanic, or a host-level bug in user code
            self.state = GState.PANICKED
            self.panic_value = exc
            self.panic_traceback = traceback.format_exc()
            # The text is all a report needs; the live traceback's frames
            # would keep this goroutine's locals (and the scheduler) alive.
            _drop_tracebacks(exc)

    def release(self) -> None:
        """Drop the edges back into the finished run (end-of-run teardown).

        What a report reads stays: gid, name, state, block reason, result,
        the panic and its formatted traceback, ``describe()``.
        """
        self.fn = None
        self.args = ()
        self.mailbox = None
        self.pending_error = None
        self._sched = None
        self._thread = None

    def _run(self) -> None:
        # Park until the scheduler first hands us the token.
        self._my_lock.acquire()
        try:
            self._execute()
        finally:
            # Final token return: run the continuation once more so the
            # terminal state is recorded and the token moves on (to the
            # next goroutine directly, or back to the main loop).
            self._sched._handback(self, terminal=True)

    def on_current_host(self) -> bool:
        """True when the calling code is running on this goroutine's own
        host (thread/continuation) — i.e. it is safe to park it from here.
        Used by teardown to suspend a dying host that swallowed ``Killed``
        and re-entered the runtime."""
        return self._thread is not None and self._thread is threading.current_thread()

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable one-liner used in deadlock and leak reports."""
        where = f" at {self.creation_site}" if self.creation_site else ""
        reason = f" [{self.block_reason}]" if self.block_reason else ""
        return f"goroutine {self.gid} ({self.name}){where}: {self.state}{reason}"

    def __repr__(self) -> str:
        return f"<Goroutine {self.gid} {self.name} {self.state}>"


class TaskletGoroutine(Goroutine):
    """A goroutine hosted on an in-tree C continuation (``_ctasklet``).

    All goroutines share the scheduler's OS thread, and the handoff is a
    userspace stack switch: ``resume`` switches into the goroutine's
    continuation and ``yield_to_scheduler`` switches back to the hub (the
    scheduler's own continuation).  Works on CPython 3.11 / x86-64 Linux
    with nothing but a C compiler.
    """

    __slots__ = ("_tk", "_hub")

    def __init__(self, *args: Any, hub: Any = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        #: The scheduler's own tasklet (the thread's main continuation):
        #: the parent every goroutine tasklet returns to when it finishes.
        self._hub = hub
        self._tk: Any = None

    # -- scheduler side -------------------------------------------------

    def start(self) -> None:
        mod = tasklet_module()
        if mod is None:  # pragma: no cover - guarded by backend resolution
            raise RuntimeError("tasklet backend requested but the _ctasklet "
                               "extension is not available on this platform")
        self._tk = mod.Tasklet(self._execute, self._hub)
        self.state = GState.RUNNABLE

    def resume(self) -> None:
        self.state = GState.RUNNING
        self._tk.switch()

    def kill(self, join_timeout: Optional[float] = None) -> None:
        """Unwind the goroutine's continuation by raising ``Killed`` inside
        it.  The first throw unwinds well-behaved code; a second covers a
        handler that swallowed ``Killed`` once.  A continuation that
        swallows both is recorded as a stuck host and its stack is
        abandoned, mirroring an OS thread that outlives its join."""
        if self.state in GState.TERMINAL or self._tk is None:
            return
        self._killed = True
        for _ in range(2):
            if self._tk.dead:
                break
            self._tk.throw(Killed)
            if self._tk.dead or self.state in GState.TERMINAL:
                break
        else:
            timeout = HOST_JOIN_TIMEOUT if join_timeout is None else join_timeout
            self._mark_stuck(timeout)
            return
        if self.state not in GState.TERMINAL:
            # Killed before its first resume: the body never ran, so
            # ``_execute`` never classified the exit.
            self.state = GState.KILLED

    def release(self) -> None:
        super().release()
        self._tk = None
        self._hub = None

    def on_current_host(self) -> bool:
        return (self._tk is not None
                and tasklet_module().current() is self._tk)

    # -- goroutine side -------------------------------------------------

    def yield_to_scheduler(self) -> None:
        self._hub.switch()
        if self._killed:
            raise Killed()
        if self.pending_error is not None:
            try:
                raise self.pending_error
            finally:
                self.pending_error = None
