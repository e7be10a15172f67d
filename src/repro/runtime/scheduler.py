"""The deterministic, seeded goroutine scheduler.

The scheduler owns the token described in :mod:`repro.runtime.goroutine`,
the virtual clock, the runnable set, and the trace.  Every run is a pure
function of ``(program, seed, options)``: the only source of nondeterminism
Go programs observe (which runnable goroutine runs next, which ready
``select`` case fires) is drawn from one seeded RNG.

Sweeping seeds is the simulator's replacement for the paper's "run the buggy
program a lot of times": a bug that manifests on 3% of real executions
manifests on a similar fraction of seeds.  Because sweep throughput is the
system's effective speed, the per-step path here is deliberately lean:

* scheduling randomness comes from the compiled ``BatchedRandom``
  (:mod:`repro.runtime._hotloop`; bit-identical to ``random.Random``, a
  fraction of the call overhead), or from ``random.Random`` itself where
  the extension does not build;
* trace events are only *recorded* when someone will see them — a kept
  trace, or a detector or observer that asked for the records
  (``Trace.active``); a ``keep_trace=False`` run with no detectors pays
  one attribute check per would-be event.  The kept log stores plain
  records, read when the run finishes, and a ``TraceEvent`` object is
  built only for a reader that asks for one;
* traced, untraced, explored and faulted runs alike take the compiled
  drive loop when it loads; it draws inline from the stock RNG and calls
  any other one's ``randrange`` (the explorer's scripted choices) once
  per pick.  A faulted run drives up to the step the injector names as
  its next due one (:meth:`repro.inject.injector.FaultInjector.next_due`),
  pulses the injector there and drives on.  :attr:`Scheduler.drive_steps`
  counts the steps the compiled loop took;
* timers fire inside the compiled loop: with nothing runnable it moves
  the virtual clock to the next deadline and fires what is due, so a run
  with thousands of timers enters it once per :meth:`run_until_quiescent`
  call.  A sleeper's timer holds the goroutine itself, and the loop
  readies it in C with the records :meth:`ready` would write; it calls
  every other callback itself, with the record :meth:`fire_timers`
  would write.  A faulted run fires them there too, below the
  injector's clock horizon (the earliest ``after_time`` a fault still
  waits for): a timer at or past it leaves the loop and fires here, so
  the injector is pulsed once the clock has crossed it.  A fire that
  wakes nobody counts one against the step budget, so a ticker nobody
  reads cannot keep a run alive;
* consumers that need every scheduling decision (the observer's step
  metrics, the explorer's footprints) read a *pick log* after the run
  instead of taking a call per step: :meth:`Scheduler.record_picks` turns
  it on, and both loops append one ``(step, runnable snapshot, chosen
  index)`` record per pick.  A run nobody asked a log of pays one check
  per drive-loop entry;
* ``user_stack()`` walks only happen under ``capture_sites`` (profiling).
"""

from __future__ import annotations

import operator
import os
import sys
import threading
import time as _time
from functools import partial
from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple

from .clock import VirtualClock
from .errors import SchedulerStateError
from ._hotloop import BatchedRandom, get_drive
from .goroutine import (
    Goroutine,
    GState,
    TaskletGoroutine,
    has_tasklet,
    tasklet_module,
)
from .trace import EventKind, Trace

#: Package directories whose frames are simulator plumbing, not user code.
#: Bug kernels (``repro.bugs``), mini-apps (``repro.apps``) and the chaos
#: scenarios (``repro.inject.scenarios``) are *user* code for profiling
#: purposes; the injector itself only runs in scheduler context and never
#: appears above a block, so ``inject`` needs no entry here.
_INTERNAL_PACKAGES = ("runtime", "chan", "sync", "stdlib")
_internal_dirs: Optional[Tuple[str, ...]] = None

#: Goroutine host backends a caller may request.  ``"coroutine"`` (the
#: default) runs every goroutine as a single-threaded continuation on the
#: in-tree ``_ctasklet`` C extension (vehicle ``"tasklet"``), or on
#: ``"thread"`` when that extension cannot load.  ``"thread"`` (one daemon
#: OS thread per goroutine) is always available.  Both vehicles produce
#: bit-identical schedules.
BACKENDS = ("coroutine", "thread")

#: One pick-log entry: ``(step, runnable, chosen)`` — the step the pick
#: starts, the runnable goroutines offered (in runnable-list order) and
#: the index drawn; ``runnable[chosen]`` ran.
PickRecord = Tuple[int, Tuple[Goroutine, ...], int]


def _internal_frame_dirs() -> Tuple[str, ...]:
    global _internal_dirs
    if _internal_dirs is None:
        base = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        _internal_dirs = tuple(
            os.path.join(base, pkg) + os.sep for pkg in _INTERNAL_PACKAGES
        )
    return _internal_dirs


#: Interned ``file:line`` strings.  Bounded: a long-lived process sweeping
#: many programs touches an unbounded set of ``(filename, lineno)`` pairs,
#: and the cache used to grow forever.  On overflow the oldest entries are
#: evicted FIFO (dict preserves insertion order), which keeps the hot
#: working set — sites recur heavily within one program — while capping
#: memory.
_SITE_CACHE_MAX = 4096
_site_cache: dict = {}


def short_site(filename: str, lineno: int, dirs: int = 1) -> str:
    """``dir/file.py:line`` — stable across checkouts (no absolute prefix);
    ``dirs`` is how many directories to keep (0: ``file.py:line``)."""
    key = (filename, lineno, dirs)
    site = _site_cache.get(key)
    if site is None:
        parts = filename.replace(os.sep, "/").rsplit("/", dirs + 1)
        site = f"{'/'.join(parts[-dirs - 1:])}:{lineno}"
        if len(_site_cache) >= _SITE_CACHE_MAX:
            for stale in list(_site_cache)[: _SITE_CACHE_MAX // 8]:
                del _site_cache[stale]
        _site_cache[key] = site
    return site


def user_stack(limit: int = 8) -> Tuple[str, ...]:
    """User-code call sites above the current frame, innermost first.

    Frames inside the simulator's own packages (scheduler, primitives,
    stdlib analogues, fault injection) are skipped so profiles attribute
    waits to the program under study, not to the plumbing.  The walk stops
    at the goroutine trampoline (``Goroutine._execute``), never leaking host
    ``threading`` frames into a profile.
    """
    frames: List[str] = []
    try:
        frame = sys._getframe(1)
    except ValueError:  # pragma: no cover - exotic hosts
        return ()
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        filename = code.co_filename
        kind = _frame_files.get(filename)
        if kind is None:
            kind = _classify_frame_file(filename)
        internal, host_file = kind
        if host_file and code.co_name in ("_run", "_execute"):
            break
        if not internal:
            frames.append(short_site(filename, frame.f_lineno))
        frame = frame.f_back
    return tuple(frames)


#: Code filename -> ``(internal, goroutine.py)`` for :func:`user_stack`, so
#: a frame costs one dict lookup instead of prefix and suffix tests.  Keyed
#: by filename, not by code object: code objects compare by value, and two
#: equal ones may live in different files.
_frame_files: Dict[str, Tuple[bool, bool]] = {}


def _classify_frame_file(filename: str) -> Tuple[bool, bool]:
    if len(_frame_files) >= _SITE_CACHE_MAX:
        _frame_files.clear()
    kind = (filename.startswith(_internal_frame_dirs()),
            filename.endswith("goroutine.py"))
    _frame_files[filename] = kind
    return kind


# Every fallback that actually happened, counted per (requested -> used)
# edge, so perfbench and the tests can report how many schedulers ran on a
# different vehicle than the one requested.
_fallback_counts: Dict[str, int] = {}


def backend_fallbacks() -> Dict[str, int]:
    """Counts of backend fallbacks this process, keyed ``"requested->used"``."""
    return dict(_fallback_counts)


def resolve_backend(backend: str) -> str:
    """Map a requested backend name to the concrete vehicle that will run.

    ``"coroutine"`` gives ``"tasklet"`` when the ``_ctasklet`` extension
    loads; otherwise it gives ``"thread"`` and counts a
    ``coroutine->thread`` fallback.  Fallbacks never change schedules —
    both vehicles draw the identical seeded decision sequence.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown goroutine backend {backend!r}; expected one of {BACKENDS}")
    if backend == "coroutine":
        if has_tasklet():
            return "tasklet"
        _fallback_counts["coroutine->thread"] = (
            _fallback_counts.get("coroutine->thread", 0) + 1)
        return "thread"
    return backend


class Scheduler:
    """Cooperative scheduler enforcing the one-runner invariant.

    Not part of the public API: user code talks to
    :class:`repro.runtime.runtime.Runtime`, which delegates here.
    """

    def __init__(
        self,
        seed: int = 0,
        max_steps: int = 1_000_000,
        preempt: bool = True,
        keep_trace: bool = True,
        rng: Optional[Any] = None,
        backend: str = "coroutine",
    ):
        #: Source of all scheduling nondeterminism.  Anything with a
        #: ``randrange(n)`` method works; the systematic explorer injects a
        #: scripted source here to enumerate schedules exhaustively.  The
        #: default, ``_hotloop.BatchedRandom``, is the compiled MT19937, or
        #: ``random.Random`` where it does not build; both draw the same
        #: sequence.  The seed is checked here, once, for both: it must
        #: be an integer (``operator.index``), so ``None``, a string or a
        #: float raises ``TypeError`` whichever RNG the run gets.
        seed = operator.index(seed)
        self.rng = rng if rng is not None else BatchedRandom(seed)
        self._randrange = self.rng.randrange  # hot-path bound method
        self.seed = seed
        self.clock = VirtualClock()
        self.trace = Trace(keep_events=keep_trace)
        self.max_steps = max_steps
        #: When True, every primitive operation is a preemption point; when
        #: False only genuinely blocking operations yield (faster, but fewer
        #: interleavings are explored).
        self.preempt = preempt
        #: The backend name the caller asked for (possibly ``"coroutine"``).
        self.requested_backend = backend
        #: The concrete vehicle carrying the token: "tasklet" (single-thread
        #: continuations) or "thread".
        self.backend = resolve_backend(backend)
        #: True for the thread vehicle: yields run the scheduler's
        #: continuation inline on the yielding host (direct handoff).  The
        #: tasklet vehicle bounces every yield back to the main loop — a
        #: userspace switch, so there is nothing to save by not bouncing.
        self._direct = self.backend == "thread"
        #: The calling thread's main continuation (tasklet vehicle only):
        #: the hub every goroutine tasklet switches back to.
        self._hub: Any = (None if self._direct
                          else tasklet_module().current())

        self.goroutines: List[Goroutine] = []
        self._runnable: List[Goroutine] = []
        self._current: Optional[Goroutine] = None
        self._steps = 0
        #: Scheduler-owned half of the token handoff (thread vehicle
        #: only): created held; goroutines release it when handing the
        #: token back.
        self._handoff: Any = None
        if self._direct:
            self._handoff = threading.Lock()
            self._handoff.acquire()
        self._next_gid = 1
        self._shutting_down = False
        #: The goroutine currently being unwound by :meth:`kill_all`, so a
        #: dying host that re-enters the runtime can be parked (see
        #: :meth:`_teardown_park`).
        self._teardown_g: Optional[Goroutine] = None
        #: The compiled fused step loop (``repro.runtime._ext._hotloop``),
        #: or None.  Only the centralized (tasklet) loop can use it; the
        #: thread vehicle's direct handoff never goes through here.
        self._hot: Optional[Callable[["Scheduler"], str]] = (
            None if self._direct else get_drive())
        # Per-call loop state, shared with the inline continuations that
        # goroutine hosts run in ``_handback`` (all token-serialized).
        #: The stop condition of the current :meth:`run_until_quiescent`
        #: call, ``("main", g)`` or ``("panic", None)``.  Both loops stop
        #: when a goroutine panicked or when its goroutine, if any, ended.
        self._stop_mode: Optional[Tuple[str, Optional[Goroutine]]] = None
        self._time_limit: Optional[float] = None
        self._budget = 0
        self._budget_used = 0
        #: The clock horizon the compiled loop fires timers below: a timer
        #: due at or past it makes drive return ``"idle"`` with the clock
        #: unmoved.  ``inf`` except while a faulted run drives
        #: (:meth:`_drive_to_due_step`).
        self._horizon = inf
        #: Why the main loop was woken: one of the ``run_until_quiescent``
        #: outcome strings, ``"idle"`` (no runnable goroutine — the main
        #: thread must fire timers or declare quiescence), or ``"error"``
        #: (scheduler-context code raised on a goroutine host; see
        #: ``_loop_error``).
        self._main_verdict: Optional[str] = None
        self._loop_error: Optional[BaseException] = None
        #: First goroutine to panic, if any (aborts the whole run, as in Go).
        self.panicked: Optional[Goroutine] = None
        #: Optional fault injector (:mod:`repro.inject`): pulsed in
        #: scheduler context (by ``_advance``, or between drive entries by
        #: ``_drive_to_due_step``) at every step where it names a fault
        #: due, so every injected fault lands at an existing scheduling
        #: point.
        self.injector: Optional[Any] = None
        #: Join bound handed to :meth:`Goroutine.kill` during teardown.
        self.host_join_timeout: Optional[float] = None
        #: Observability flag (:mod:`repro.observe`): when on, every
        #: GO_BLOCK event carries the user call-site stack.
        self.capture_sites = False
        #: The pick log, or None until a consumer asks for it with
        #: :meth:`record_picks`.  One entry per ``randrange`` draw on
        #: :attr:`rng`: a :data:`PickRecord` per scheduling decision, and
        #: None for a ``select`` draw, so an entry's index is the draw's
        #: position in the RNG stream (the explorer's choice-log position).
        self.pick_log: Optional[List[Optional[PickRecord]]] = None
        #: Steps taken inside the compiled drive loop, counted per entry
        #: from the ``_steps`` delta around it; the rest of :attr:`steps`
        #: ran on the pure loop.
        self.drive_steps = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def record_picks(self) -> List[Optional[PickRecord]]:
        """Start this run's pick log (or join it) and return it.

        Consumers attach before the run starts, keep the returned list and
        read it in ``finish``; every consumer of one run shares one log.
        """
        if self.pick_log is None:
            self.pick_log = []
        return self.pick_log

    @property
    def steps(self) -> int:
        """Scheduling steps taken so far (one per token handoff)."""
        return self._steps

    @property
    def current(self) -> Goroutine:
        """The goroutine currently holding the token."""
        if self._current is None:
            self._teardown_park()
            raise SchedulerStateError("no goroutine is currently running")
        return self._current

    def _teardown_park(self) -> None:
        """Park a dying host that re-entered the runtime during teardown.

        A goroutine that swallows ``Killed`` and retries a blocking
        primitive lands here (`sched.current` with the run already over).
        On an OS-thread host, raising was survivable — the thread spun or
        died on its own core.  On a single-threaded continuation, raising
        returns control *to the swallowing loop*, which retries forever and
        hangs the whole process.  The only safe move is to suspend the
        continuation right here: control returns to ``kill``, which marks
        the goroutine stuck and abandons it.  Never returns once it parks;
        a further kill attempt re-raises ``Killed`` from the yield.
        """
        g = self._teardown_g
        if self._shutting_down and g is not None and g.on_current_host():
            while True:
                g.yield_to_scheduler()

    @property
    def current_gid(self) -> int:
        """gid of the running goroutine, or 0 in scheduler context."""
        return self._current.gid if self._current is not None else 0

    def live_goroutines(self) -> List[Goroutine]:
        return [g for g in self.goroutines if g.state in GState.LIVE]

    def blocked_goroutines(self) -> List[Goroutine]:
        return [g for g in self.goroutines if g.state == GState.BLOCKED]

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def emit(
        self,
        kind: str,
        obj: Optional[int] = None,
        info: Optional[dict] = None,
        gid: Optional[int] = None,
    ) -> None:
        """Record a trace event attributed to the running goroutine.

        Fast path: when nobody consumes events (``keep_trace=False`` and no
        detector/observer asked for the records) nothing is recorded.
        Otherwise the fields go positionally to ``Trace.emit``, which
        appends them to the kept log as one record.
        """
        trace = self.trace
        if not trace.active:
            return
        if gid is None:
            g = self._current
            gid = g.gid if g is not None else 0
        trace.emit(self._steps, self.clock.now, gid, kind, obj, info)

    # ------------------------------------------------------------------
    # Goroutine management
    # ------------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        name: Optional[str] = None,
        anonymous: bool = False,
        creation_site: Optional[str] = None,
    ) -> Goroutine:
        """Create a goroutine and put it on the runnable set."""
        g = (Goroutine if self._direct else TaskletGoroutine)(
            self._next_gid, fn, args, self, name, anonymous, creation_site)
        self._next_gid += 1
        g.created_at = self.clock.now
        self.goroutines.append(g)
        self._runnable.append(g)
        g.start()
        if self.trace.active:
            self.emit(EventKind.GO_CREATE, obj=g.gid,
                      info={"anonymous": anonymous, "name": g.name,
                            "site": creation_site})
        return g

    # ------------------------------------------------------------------
    # Goroutine-side primitives (run on a goroutine host holding the token)
    # ------------------------------------------------------------------

    def schedule_point(self) -> None:
        """A voluntary preemption point: let the scheduler pick again."""
        if not self.preempt or self._current is None:
            return
        g = self._current
        # State stays RUNNING so the loop knows this was a yield, not a block.
        g.yield_to_scheduler()

    def block(self, reason: str, external: bool = False,
              obj: "Optional[object]" = None) -> None:
        """Park the running goroutine until another party readies it.

        Primitive code must register the goroutine on the relevant wait queue
        *before* calling this, then re-check its wait condition after it
        returns (the standard wait-loop discipline).  ``obj`` names the
        object(s) whose wait queue the goroutine registered on — a single
        primitive id or a tuple of ids (a select parks on every case
        channel); it rides on the ``GO_BLOCK`` event so schedule-equivalence
        pruning knows the blocked attempt's full footprint.
        """
        g = self.current
        g.state = GState.BLOCKED
        g.block_reason = reason
        g.external = external
        if self.trace.active:
            info: dict = {"reason": reason}
            event_obj: Optional[int] = None
            if obj is not None:
                if isinstance(obj, int):
                    event_obj = obj
                else:
                    info["objs"] = tuple(obj)
            if self.capture_sites:
                stack = user_stack()
                if stack:
                    info["site"] = stack[0]
                    info["stack"] = stack
            self.emit(EventKind.GO_BLOCK, obj=event_obj, info=info)
        if g in self._runnable:
            self._runnable.remove(g)
        g.yield_to_scheduler()
        g.block_reason = None
        g.external = False

    def park_timer(self, delay: float, reason: str, external: bool,
                   kind: str, info: dict) -> None:
        """Park the running goroutine on a wake entry ``delay`` virtual
        seconds out (``Runtime.sleep``, ``Runtime.external_wait`` with a
        duration).

        One frame, on the sleeper's hot path: it writes the records
        :meth:`emit` and :meth:`block` would (``kind`` with ``info``, then
        a ``go.block`` per park), arms the entry with one ``call_at``
        (``delay`` clamped at zero, as ``call_after`` clamps it) and
        yields.  The timer's callback slot holds the goroutine itself,
        and firing it (:meth:`fire_timers`, or the drive loop in C)
        readies it and empties the slot; a wakeup while the slot is full
        is spurious (an injected one) and the goroutine parks again.  A
        non-finite ``delay`` raises ``ValueError`` from ``call_at`` after
        the first record, before the goroutine parks.
        """
        g = self._current
        if g is None:
            g = self.current  # raises, or parks a dying host
        clock = self.clock
        trace = self.trace
        if trace.active:
            # The record ``emit`` would pass to ``Trace.emit``, appended
            # here without either frame (as the drive loop does in C).
            trace._records.append((self._steps, clock.now, g.gid, kind,
                                   None, info))
        if delay < 0.0:
            delay = 0.0
        timer = clock.call_at(clock.now + delay, g)
        runnable = self._runnable
        while True:
            g.state = GState.BLOCKED
            g.block_reason = reason
            g.external = external
            if trace.active:
                block_info: dict = {"reason": reason}
                if self.capture_sites:
                    stack = user_stack()
                    if stack:
                        block_info["site"] = stack[0]
                        block_info["stack"] = stack
                trace._records.append((self._steps, clock.now, g.gid,
                                       EventKind.GO_BLOCK, None, block_info))
            if g in runnable:
                runnable.remove(g)
            g.yield_to_scheduler()
            g.block_reason = None
            g.external = False
            if timer[2] is None:
                return

    def ready(self, g: Goroutine) -> None:
        """Move a blocked goroutine back to the runnable set."""
        if g.state != GState.BLOCKED:
            return
        g.state = GState.RUNNABLE
        self._runnable.append(g)
        if self.trace.active:
            self.emit(EventKind.GO_UNBLOCK, obj=g.gid)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run_until_quiescent(
        self,
        stop_mode: Tuple[str, Optional[Goroutine]],
        step_budget: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> str:
        """Drive goroutines until nothing can run, firing timers when idle.

        ``stop_mode`` names one of the two standard stop conditions —
        ``("main", g)`` (stop when goroutine ``g`` is terminal or any
        goroutine panicked) and ``("panic", None)`` (stop only on panic);
        anything else is a ``ValueError``.  It is structured rather than a
        closure so the compiled hot loop can evaluate it without calling
        into Python.

        Returns one of:
          * ``"stopped"``   — the stop condition became true (e.g. main
            exited, or a goroutine panicked),
          * ``"quiescent"`` — no goroutine runnable and no timer armed,
          * ``"steps"``     — the step budget ran out (livelock backstop;
            a timer fire that leaves nothing runnable counts one),
          * ``"timeout"``   — the virtual clock passed ``time_limit`` (the
            observation-window cutoff for programs that run forever).

        Thread vehicle: after the first ``resume`` the token moves between
        goroutine hosts *directly* — each yield runs :meth:`_handback` on the
        yielding host, which performs this loop's per-step logic inline and
        wakes the next host itself.  The main thread parks here and only
        wakes when a continuation leaves a verdict (timers to fire, loop
        done).  Tasklet vehicle: every yield switches straight back into
        this loop, which does the bookkeeping itself — switches are
        userspace-cheap and the whole simulation shares one OS thread.
        The compiled loop fires due timers itself and reports ``"idle"``
        only when no live timer is left below its horizon (see
        :meth:`_drive_to_due_step`); the idle branch below fires them for
        every other path.
        """
        kind, stop_g = stop_mode
        if not ((kind == "main" and isinstance(stop_g, Goroutine))
                or (kind == "panic" and stop_g is None)):
            raise ValueError(f"unknown stop mode {stop_mode!r}")
        self._stop_mode = (kind, stop_g)
        self._time_limit = time_limit
        self._budget = self.max_steps if step_budget is None else step_budget
        self._budget_used = 0
        self._main_verdict = None
        direct = self._direct
        # The compiled fused loop stands in for the whole per-step body
        # below.  Traced, pick-logged, explored and faulted runs qualify:
        # drive stamps ``_steps`` per step, writes the pick log, calls a
        # non-stock RNG's ``randrange`` and hands ended goroutines to
        # ``_after_resume``; a faulted run drives between the injector's
        # due steps and pulses in ``_drive_to_due_step``.
        hot = self._hot
        injector = self.injector
        try:
            while True:
                if hot is not None:
                    # _drive_to_due_step steps only inside hot, so the
                    # delta around it is the steps drive took.
                    start = self._steps
                    verdict = (hot(self) if injector is None
                               else self._drive_to_due_step(hot, injector))
                    self.drive_steps += self._steps - start
                else:
                    g = self._advance()
                    if g is not None:
                        self._current = g
                        g.resume()
                        if not direct:
                            # Tasklet: the yield switched straight back here.
                            self._current = None
                            self._after_resume(g)
                            continue
                        # Thread: some host's continuation woke us with a
                        # verdict.
                    verdict = self._main_verdict
                    self._main_verdict = None
                if verdict == "idle":
                    # The compiled loop returns "idle" only with no live
                    # timer left below its horizon; the pure loop and the
                    # thread vehicle fire every timer here.
                    callbacks = self.clock.advance_to_next()
                    if callbacks:
                        self.fire_timers(callbacks)
                        if not self._runnable:
                            # A fire that woke nobody takes no step, so
                            # it counts against the budget: a ticker
                            # nobody reads cannot keep the run alive.
                            self._budget_used += 1
                        continue
                    return "quiescent"
                if verdict == "error":
                    error = self._loop_error
                    self._loop_error = None
                    assert error is not None
                    raise error
                return verdict
        finally:
            self._stop_mode = None

    def _drive_to_due_step(self, hot: Callable[["Scheduler"], str],
                           injector: Any) -> str:
        """Run the compiled loop, pulsing the injector at its due steps.

        Each round makes the decision ``_advance`` would make before a
        step: the stop, time-limit and budget checks
        (:meth:`_loop_verdict`), then, when the injector names a fault due
        at the current step, a pulse.  A pulse that acted is followed by
        a fresh round, as in ``_advance``.  Otherwise drive runs with the
        budget clamped to the next due step and ``_horizon`` set to the
        injector's clock horizon, the earliest ``after_time`` a fault
        still waits for.  Drive fires timers only below the horizon, so no
        fault comes due inside it except at the step it stops at, and it
        returns ``"idle"`` before the clock crosses one; the idle branch of
        :meth:`run_until_quiescent` then fires that timer, and the next
        call pulses.  A fault still due after a pulse that acted on
        nothing gets exactly one step, with horizon ``-inf``, so the next
        decision pulses again, as in ``_advance``.  When the clamp stops
        drive short of the due step (a fire that woke nobody took a budget
        unit and no step), the next round asks again.  Returns only
        verdicts drive itself could return.
        """
        budget = self._budget
        try:
            while True:
                verdict = self._loop_verdict()
                if verdict is not None:
                    return verdict
                due, horizon = injector.next_due(self)
                if due is not None and due <= self._steps:
                    if injector.pulse(self):
                        continue
                    due, horizon = injector.next_due(self)
                    if due is not None and due <= self._steps:
                        due, horizon = self._steps + 1, -inf
                if due is not None:
                    self._budget = min(budget,
                                       self._budget_used + due - self._steps)
                self._horizon = horizon
                verdict = hot(self)
                self._budget = budget
                if verdict != "steps" or self._budget_used >= budget:
                    return verdict
        finally:
            self._budget = budget
            self._horizon = inf

    def fire_timers(self, callbacks: List[Any]) -> None:
        """Fire popped timers in scheduler context, one ``timer.fire``
        event each.  An entry that is a goroutine is a sleeper's wake
        entry (``Runtime.sleep``, ``Runtime.external_wait``): it is
        readied.  Any other entry is called.

        The pure loop's idle verdict, the thread vehicle and the fault
        injector's clock jumps call this with every timer the clock
        popped.  The compiled drive loop never calls it: it readies
        sleepers and calls the other entries itself, with the same
        records."""
        trace = self.trace
        for callback in callbacks:
            if trace.active:
                self.emit(EventKind.TIMER_FIRE, gid=0)
            if isinstance(callback, Goroutine):
                self.ready(callback)
            else:
                callback()

    def _advance(self) -> Optional[Goroutine]:
        """One scheduler-loop decision, in scheduler context on whichever
        host holds the token.  Returns the goroutine to run next, or ``None``
        after stashing the reason in ``_main_verdict``."""
        while True:
            verdict = self._loop_verdict()
            if verdict is not None:
                self._main_verdict = verdict
                return None
            if self.injector is not None and self.injector.pulse(self):
                # A fault fired (goroutines woken/killed, clock jumped,
                # channels mutated): re-evaluate the stop conditions before
                # taking the next step.
                continue
            runnable = self._runnable
            if runnable:
                self._budget_used += 1
                self._steps += 1
                idx = self._randrange(len(runnable))
                if self.pick_log is not None:
                    self.pick_log.append((self._steps, tuple(runnable), idx))
                return runnable[idx]
            # No runnable goroutine: only the main thread may fire timers
            # or declare the run quiescent.
            self._main_verdict = "idle"
            return None

    def _loop_verdict(self) -> Optional[str]:
        """The checks every scheduling decision starts with, in order:
        ``"stopped"`` (a goroutine panicked, or the stop goroutine ended),
        ``"timeout"`` (the clock reached the time limit), ``"steps"`` (the
        budget is spent), or None to go on.  The compiled loop makes the
        same checks, in the same order, at the top of each iteration."""
        stop_g = self._stop_mode[1]
        if self.panicked is not None or (
                stop_g is not None and stop_g.state in GState.TERMINAL):
            return "stopped"
        if self._time_limit is not None and self.clock.now >= self._time_limit:
            return "timeout"
        if self._budget_used >= self._budget:
            return "steps"
        return None

    def _handback(self, g: Goroutine, terminal: bool) -> Optional[str]:
        """Thread-vehicle continuation, run on ``g``'s own host right after
        it yields (or its body ends).  Records the yield, makes the next
        scheduling decision inline, and moves the token with at most one OS
        context switch:

          * next pick is another goroutine — wake its private lock directly;
          * next pick is ``g`` itself — return ``"self"`` so the caller keeps
            running without parking (no switch at all);
          * the main loop must act (timers, termination, a scheduler-context
            exception) — stash a verdict and release the main handoff lock.
        """
        if self._shutting_down:
            # Teardown: hand the token straight back to ``kill``'s timed
            # acquire; no bookkeeping (matches the historical semantics where
            # teardown-killed goroutines emit no GO_END event).
            try:
                self._handoff.release()
            except RuntimeError:  # pragma: no cover - late stuck-thread race
                pass
            return None
        self._current = None
        try:
            self._after_resume(g)
            nxt = self._advance()
        except BaseException as exc:
            # Scheduler-context code (the injector, a scripted RNG)
            # raised on this host: relay it to the main loop,
            # which re-raises it out of run_until_quiescent as before.
            self._loop_error = exc
            self._main_verdict = "error"
            self._handoff.release()
            return None
        if nxt is None:
            self._handoff.release()  # verdict already stashed by _advance
            return None
        self._current = nxt
        nxt.state = GState.RUNNING
        if nxt is g and not terminal:
            return "self"
        nxt._my_lock.release()
        return None

    def _after_resume(self, g: Goroutine) -> None:
        if g.state == GState.RUNNING:
            g.state = GState.RUNNABLE  # voluntary yield at a schedule point
            return
        # Blocked goroutines already removed themselves in block().
        if g.state in GState.TERMINAL:
            if g in self._runnable:
                self._runnable.remove(g)
            g.ended_at = self.clock.now
            if g.state == GState.PANICKED and self.panicked is None:
                self.panicked = g
            kind = EventKind.GO_PANIC if g.state == GState.PANICKED else EventKind.GO_END
            self.emit(kind, gid=g.gid)

    # ------------------------------------------------------------------
    # Fault-injection entry points (scheduler context; used by repro.inject)
    # ------------------------------------------------------------------

    def inject_wakeup(self, g: Goroutine) -> bool:
        """Spuriously ready a blocked goroutine.

        Safe under the wait-loop discipline: every primitive re-checks its
        wait condition after :meth:`block` returns, so a spurious wakeup can
        only add interleavings, never corrupt state.
        """
        if g.state != GState.BLOCKED:
            return False
        self.ready(g)
        return True

    def inject_delay(self, g: Goroutine, duration: float) -> bool:
        """Park a runnable goroutine for ``duration`` virtual seconds."""
        if g.state != GState.RUNNABLE or g not in self._runnable:
            return False
        self._runnable.remove(g)
        g.state = GState.BLOCKED
        g.block_reason = "inject.delay"
        self.clock.call_after(duration, partial(self._end_delay, g))
        return True

    def _end_delay(self, g: Goroutine) -> None:
        """Timer callback of :meth:`inject_delay`.  The delayed goroutine
        resumes at a schedule point, not in :meth:`block`, so nothing else
        clears its block reason."""
        g.block_reason = None
        self.ready(g)

    def inject_kill(self, g: Goroutine) -> bool:
        """Mark a goroutine dead: it unwinds (state ``KILLED``) at its next
        resume, modelling a goroutine that dies while peers still block on
        it.  Anything it left on wait queues stays there, as in real crashes.
        """
        if g.state not in (GState.RUNNABLE, GState.BLOCKED):
            return False
        g._killed = True
        if g.state == GState.BLOCKED:
            g.block_reason = None
            self.ready(g)
        return True

    def inject_panic(self, g: Goroutine, error: BaseException) -> bool:
        """Raise ``error`` inside the goroutine at its next scheduling point."""
        if g.state not in (GState.RUNNABLE, GState.BLOCKED):
            return False
        g.pending_error = error
        if g.state == GState.BLOCKED:
            self.ready(g)
        return True

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def kill_all(self) -> None:
        """Unwind every live goroutine's host (end of run cleanup).

        Thread vehicle: ``host_join_timeout`` is a *total* teardown budget,
        not a per-goroutine one: with N hung host threads a per-goroutine
        bound stalled teardown for N x timeout.  Each kill gets the time
        remaining on the shared deadline (with a small floor so a
        well-behaved host can always unwind).  Tasklets unwind
        synchronously: they get no deadline, and the timeout only names
        the bound in a stuck tasklet's warning.
        """
        self._shutting_down = True
        timeout, deadline = self.host_join_timeout, None
        if self._direct:
            from .goroutine import HOST_JOIN_TIMEOUT  # read at call time

            deadline = _time.monotonic() + max(
                HOST_JOIN_TIMEOUT if timeout is None else timeout, 0.0)
        try:
            for g in self.goroutines:
                if g.state in GState.LIVE:
                    if deadline is not None:
                        timeout = max(deadline - _time.monotonic(), 0.05)
                    self._teardown_g = g
                    g.kill(join_timeout=timeout)
        finally:
            self._teardown_g = None

    def teardown(self) -> None:
        """Cut the back edges that tie a finished run into reference cycles.

        Runs after :meth:`kill_all` and after the observers' ``finish``.
        Goroutines drop their scheduler, body and vehicle handles; the
        scheduler drops its runnable list, injector, pick log and pending
        timers.  The run is then freed by reference counting as soon as its
        :class:`RunResult` goes, instead of surviving as cyclic garbage
        that every later collection re-scans.
        A goroutine whose host is stuck keeps its edges: that host may
        still re-enter the runtime.
        """
        for g in self.goroutines:
            if not g.stuck_host_thread:
                g.release()
        self._runnable.clear()
        self._current = None
        self._hub = None
        self.injector = None
        self.pick_log = None
        self.clock.clear()
