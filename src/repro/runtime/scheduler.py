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

* scheduling randomness comes from :class:`repro.runtime.fastrand.BatchedRandom`
  (bit-identical to ``random.Random``, a fraction of the call overhead);
* trace events are only *allocated* when someone will see them — a kept
  trace or a subscribed listener (``Trace.active``); a ``keep_trace=False``
  run with no detectors pays one attribute check per would-be event;
* ``user_stack()`` walks only happen under ``capture_sites`` (profiling).
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time as _time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .clock import VirtualClock
from .errors import Killed, SchedulerStateError, StepLimitExceeded
from ._hotloop import BatchedRandom, get_drive, get_fastops
from .goroutine import (
    Goroutine,
    GState,
    TaskletGoroutine,
    has_tasklet,
    tasklet_module,
)
from .trace import EventKind, Trace, TraceEvent

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


def short_site(filename: str, lineno: int) -> str:
    """``dir/file.py:line`` — stable across checkouts (no absolute prefix)."""
    key = (filename, lineno)
    site = _site_cache.get(key)
    if site is None:
        parts = filename.replace(os.sep, "/").rsplit("/", 2)
        site = f"{'/'.join(parts[-2:])}:{lineno}"
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
    internal = _internal_frame_dirs()
    frames: List[str] = []
    try:
        frame = sys._getframe(1)
    except ValueError:  # pragma: no cover - exotic hosts
        return ()
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        filename = code.co_filename
        if code.co_name in ("_run", "_execute") and filename.endswith("goroutine.py"):
            break
        if not filename.startswith(internal):
            frames.append(short_site(filename, frame.f_lineno))
        frame = frame.f_back
    return tuple(frames)


# Every fallback that actually happened, counted per (requested -> used)
# edge, so ``repro bench`` and perfbench can report how many schedulers ran
# on a different vehicle than the one requested.
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
        #: default is a batched Mersenne-Twister front-end that draws the
        #: exact sequence ``random.Random(seed)`` would.
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
        #: Scheduler-owned half of the token handoff (thread vehicle):
        #: created held; goroutines release it when handing the token back.
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
        self._hot: Optional[Callable[["Scheduler"], Optional[str]]] = (
            None if self._direct else get_drive())
        #: Compiled channel/select/mutex fast ops (the same C module), or
        #: None.  Unlike ``_hot`` these work on both vehicles: each op
        #: re-checks engagement (trace inactive, no injector, goroutine
        #: context) at entry and returns ``NotImplemented`` to defer to the
        #: pure path when any observer is attached.
        self._fastops = get_fastops()
        # Per-call loop state, shared with the inline continuations that
        # goroutine hosts run in ``_handback`` (all token-serialized).
        self._stop_when: Optional[Callable[[], bool]] = None
        #: Structured stop condition (``("main", g)`` / ``("panic", None)``)
        #: mirroring ``_stop_when`` when the caller used one of the standard
        #: shapes; lets the compiled loop evaluate the stop check without a
        #: Python call per step.
        self._stop_mode: Optional[Tuple[str, Optional[Goroutine]]] = None
        self._time_limit: Optional[float] = None
        self._budget = 0
        self._budget_used = 0
        #: Why the main loop was woken: one of the ``run_until_quiescent``
        #: outcome strings, ``"idle"`` (no runnable goroutine — the main
        #: thread must fire timers or declare quiescence), or ``"error"``
        #: (scheduler-context code raised on a goroutine host; see
        #: ``_loop_error``).
        self._main_verdict: Optional[str] = None
        self._loop_error: Optional[BaseException] = None
        #: First goroutine to panic, if any (aborts the whole run, as in Go).
        self.panicked: Optional[Goroutine] = None
        #: Optional fault injector (:mod:`repro.inject`): pulsed once per
        #: scheduler-loop iteration, in scheduler context, so every injected
        #: fault lands at an existing scheduling point.
        self.injector: Optional[Any] = None
        #: Join bound handed to :meth:`Goroutine.kill` during teardown.
        self.host_join_timeout: Optional[float] = None
        #: Observability hooks (:mod:`repro.observe`).  When ``capture_sites``
        #: is on, every GO_BLOCK event carries the user call-site stack; the
        #: ``on_step`` callback sees ``(step, runnable_depth, gid)`` for each
        #: scheduling decision.  Both are inert by default: one flag test and
        #: one None check per step when nothing is attached.
        self.capture_sites = False
        self.on_step: Optional[Callable[[int, int, int], None]] = None
        #: Exploration hook (:mod:`repro.detect.annotate`): sees the full
        #: runnable list and the chosen index for every scheduling decision,
        #: so the systematic explorer can learn which goroutines each choice
        #: point offered.  Inert by default (one None check per step).
        self.annotate_pick: Optional[Callable[[List[Goroutine], int], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

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
        """Append a trace event attributed to the running goroutine.

        Fast path: when nobody consumes events (``keep_trace=False`` and no
        subscribed detector/observer) the event object is never allocated.
        """
        trace = self.trace
        if not trace.active:
            return
        trace.emit(
            TraceEvent(
                step=self._steps,
                time=self.clock.now,
                gid=self.current_gid if gid is None else gid,
                kind=kind,
                obj=obj,
                info=info,
            )
        )

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
        common = dict(
            gid=self._next_gid,
            fn=fn,
            args=args,
            scheduler=self,
            name=name,
            anonymous=anonymous,
            creation_site=creation_site,
        )
        if self._direct:
            g: Goroutine = Goroutine(**common)
        else:
            g = TaskletGoroutine(hub=self._hub, **common)
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

    def ready(self, g: Goroutine) -> None:
        """Move a blocked goroutine back to the runnable set."""
        if g.state != GState.BLOCKED:
            return
        g.state = GState.RUNNABLE
        self._runnable.append(g)
        self.emit(EventKind.GO_UNBLOCK, obj=g.gid)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run_until_quiescent(
        self,
        stop_when: Optional[Callable[[], bool]] = None,
        advance_clock: bool = True,
        step_budget: Optional[int] = None,
        time_limit: Optional[float] = None,
        stop_mode: Optional[Tuple[str, Optional[Goroutine]]] = None,
    ) -> str:
        """Drive goroutines until nothing can run.

        ``stop_mode`` is the structured form of the two standard stop
        conditions — ``("main", g)`` (stop when ``g`` is terminal or any
        goroutine panicked) and ``("panic", None)`` (stop only on panic).
        Passing it instead of a ``stop_when`` closure means the compiled
        hot loop can evaluate the condition without calling into Python,
        and this method synthesizes the equivalent closure for the pure
        paths.  An explicit ``stop_when`` always wins.

        Returns one of:
          * ``"stopped"``   — ``stop_when()`` became true (e.g. main exited,
            or a goroutine panicked),
          * ``"quiescent"`` — no goroutine runnable and no timer armed (or
            clock advancement disabled),
          * ``"steps"``     — the step budget ran out (livelock backstop),
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
        """
        if stop_mode is not None:
            if stop_when is not None:
                stop_mode = None  # explicit closure wins; compiled loop off
            else:
                kind, stop_g = stop_mode
                if kind == "main":
                    def stop_when() -> bool:
                        return (stop_g.state in GState.TERMINAL
                                or self.panicked is not None)
                elif kind == "panic":
                    def stop_when() -> bool:
                        return self.panicked is not None
                else:
                    raise ValueError(f"unknown stop mode {kind!r}")
        self._stop_when = stop_when
        self._stop_mode = stop_mode
        self._time_limit = time_limit
        self._budget = self.max_steps if step_budget is None else step_budget
        self._budget_used = 0
        self._main_verdict = None
        direct = self._direct
        # The compiled fused loop stands in for the whole per-step body
        # below whenever nothing observable differs from the pure path: a
        # structured stop condition, no trace consumer, no injector, no
        # observe/explore hooks, and the stock RNG (checked inside drive).
        hot = self._hot if stop_mode is not None else None
        try:
            while True:
                if (hot is not None and self.injector is None
                        and self.on_step is None
                        and self.annotate_pick is None
                        and not self.trace.active):
                    verdict = hot(self)
                    if verdict is None:
                        # Static mismatch (e.g. a scripted RNG): the pure
                        # loop takes over for the rest of this call.
                        hot = None
                    elif verdict == "idle":
                        if advance_clock and self.clock.has_pending():
                            self.fire_timers(self.clock.advance_to_next())
                            continue
                        return "quiescent"
                    else:
                        return verdict
                g = self._advance()
                if g is not None:
                    self._current = g
                    g.resume()
                    if not direct:
                        # Tasklet: the yield switched straight back here.
                        self._current = None
                        self._after_resume(g)
                        continue
                    # Thread: some host's continuation woke us with a verdict.
                verdict = self._main_verdict
                self._main_verdict = None
                if verdict == "idle":
                    if advance_clock and self.clock.has_pending():
                        self.fire_timers(self.clock.advance_to_next())
                        continue
                    return "quiescent"
                if verdict == "error":
                    error = self._loop_error
                    self._loop_error = None
                    assert error is not None
                    raise error
                return verdict
        finally:
            self._stop_when = None
            self._stop_mode = None

    def fire_timers(self, fired) -> None:
        """Run fired timer callbacks in scheduler context (one trace event
        each), shared by the main loop and the fault injector's clock jumps."""
        for handle in fired:
            self.emit(EventKind.TIMER_FIRE, gid=0)
            handle.callback()

    def _advance(self) -> Optional[Goroutine]:
        """One scheduler-loop decision, in scheduler context on whichever
        host holds the token.  Returns the goroutine to run next, or ``None``
        after stashing the reason in ``_main_verdict``."""
        while True:
            if self._stop_when is not None and self._stop_when():
                self._main_verdict = "stopped"
                return None
            if self._time_limit is not None and self.clock.now >= self._time_limit:
                self._main_verdict = "timeout"
                return None
            if self._budget_used >= self._budget:
                self._main_verdict = "steps"
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
                g = runnable[idx]
                if self.annotate_pick is not None:
                    self.annotate_pick(runnable, idx)
                if self.on_step is not None:
                    self.on_step(self._steps, len(runnable), g.gid)
                return g
            # No runnable goroutine: only the main thread may fire timers
            # or declare the run quiescent.
            self._main_verdict = "idle"
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
            # Scheduler-context code (stop_when, injector, on_step, a
            # scripted RNG) raised on this host: relay it to the main loop,
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

        def wake() -> None:
            g.block_reason = None
            self.ready(g)

        self.clock.call_after(max(duration, 0.0), wake)
        return True

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

        ``host_join_timeout`` is a *total* teardown budget, not a
        per-goroutine one: with N hung host threads the old per-goroutine
        bound stalled teardown for N x timeout, which let a mixed-backend
        test suite leak minutes to a handful of stuck threads.  Each kill
        gets the time remaining on the shared deadline (with a small floor
        so a well-behaved host can always unwind); tasklets unwind
        synchronously and spend none of it.
        """
        self._shutting_down = True
        from .goroutine import HOST_JOIN_TIMEOUT

        budget = (HOST_JOIN_TIMEOUT if self.host_join_timeout is None
                  else self.host_join_timeout)
        deadline = _time.monotonic() + max(budget, 0.0)
        try:
            for g in self.goroutines:
                if g.state in GState.LIVE:
                    remaining = deadline - _time.monotonic()
                    self._teardown_g = g
                    g.kill(join_timeout=max(remaining, 0.05))
        finally:
            self._teardown_g = None

    def check_step_limit(self) -> None:
        if self._steps > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} scheduling steps (seed={self.seed})"
            )
