"""The public runtime facade: what a Go program sees.

A simulated program is a callable ``main(rt)`` where ``rt`` is a
:class:`Runtime`.  All concurrency primitives are constructed through the
runtime (``rt.make_chan``, ``rt.mutex``, ``rt.waitgroup``, ...), mirroring
how a Go program reaches them through the language and standard library.

Example::

    from repro import run

    def main(rt):
        ch = rt.make_chan(capacity=1)

        def worker():
            ch.send(42)

        rt.go(worker)
        assert ch.recv() == 42

    result = run(main, seed=7)
    assert result.status == "ok"
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DeadlockError, GoPanic
from .goroutine import Goroutine, GState
from .scheduler import Scheduler, short_site
from .trace import EventKind, Trace


def _creation_site(depth: int = 2) -> Optional[str]:
    """``file:line`` of the caller ``depth`` frames up, for reports."""
    try:
        frame = sys._getframe(depth)
    except ValueError:  # pragma: no cover - shallow stacks in exotic hosts
        return None
    return f"{frame.f_code.co_filename.rsplit('/', 1)[-1]}:{frame.f_lineno}"


def _is_anonymous(fn: Callable[..., Any]) -> bool:
    """Heuristic mirroring the paper's named/anonymous goroutine split.

    Go's anonymous functions correspond to Python lambdas and closures
    defined inside another function; module-level functions and bound
    methods correspond to named functions.
    """
    name = getattr(fn, "__name__", "")
    if name == "<lambda>":
        return True
    qualname = getattr(fn, "__qualname__", "")
    return "<locals>" in qualname


class Runtime:
    """Per-run facade handing out primitives bound to one scheduler."""

    def __init__(self, scheduler: Scheduler):
        self.sched = scheduler
        self._next_obj_id = 1
        self._fresh_ids: Dict[str, int] = {}
        self._shared_vars: List[Any] = []
        #: Every channel created through :meth:`make_chan`, in creation
        #: order; the fault injector targets channels by name through this.
        #: The runtime library's own channels (timers, tickers, contexts,
        #: pipes) are built directly and are never fault targets.
        self._channels: List[Any] = []
        #: Every cancellable context created in this run (WithCancel /
        #: WithTimeout), for context-cancellation storms.
        self._cancel_contexts: List[Any] = []
        #: Every simulated network fabric created through :meth:`network`,
        #: in creation order; the fault injector reaches partitions, link
        #: loss and link delays through this.
        self._networks: List[Any] = []

    # ------------------------------------------------------------------
    # Object identity for traces
    # ------------------------------------------------------------------

    def new_obj_id(self) -> int:
        oid = self._next_obj_id
        self._next_obj_id += 1
        return oid

    def fresh_id(self, kind: str = "id") -> int:
        """Per-run monotone counter; an independent sequence per ``kind``.

        Application components that embed an id in the name of a seeded
        RNG (txn-retry jitter, container restart backoff) must draw the
        id here: a process-global counter would make the schedule depend
        on how many runs preceded this one in the process, breaking
        same-seed-same-trace.
        """
        nxt = self._fresh_ids.get(kind, 0) + 1
        self._fresh_ids[kind] = nxt
        return nxt

    def _teardown(self) -> None:
        """End-of-run teardown: drop the registries (every primitive in them
        points back here) and the scheduler's back edges."""
        for net in self._networks:
            net._teardown()
        self._shared_vars.clear()
        self._channels.clear()
        self._cancel_contexts.clear()
        self._networks.clear()
        self.sched.teardown()

    # ------------------------------------------------------------------
    # Goroutines
    # ------------------------------------------------------------------

    def go(self, fn: Callable[..., Any], *args: Any, name: Optional[str] = None) -> Goroutine:
        """Start a goroutine, like Go's ``go fn(args...)``."""
        g = self.sched.spawn(
            fn,
            args,
            name=name,
            anonymous=_is_anonymous(fn),
            creation_site=_creation_site(),
        )
        # Creating a goroutine is itself a scheduling point in practice.
        self.sched.schedule_point()
        return g

    def gosched(self) -> None:
        """Yield the processor, like ``runtime.Gosched()``."""
        self.sched.schedule_point()

    def gid(self) -> int:
        """The id of the calling goroutine."""
        return self.sched.current.gid

    def panic(self, value: object) -> "GoPanic":
        """Panic, like Go's ``panic(value)``.  Never returns."""
        raise GoPanic(value)

    def num_goroutine(self) -> int:
        """Live goroutine count, like ``runtime.NumGoroutine()``."""
        return len(self.sched.live_goroutines())

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Virtual-clock time in seconds."""
        return self.sched.clock.now

    def sleep(self, duration: float) -> None:
        """Sleep on the virtual clock, like ``time.Sleep``."""
        sched = self.sched
        if duration <= 0:
            # No timer: a schedule point after the same record.
            gid = sched.current.gid  # raises outside a goroutine
            if sched.trace.active:
                sched.emit(EventKind.SLEEP, info={"duration": duration},
                           gid=gid)
            sched.schedule_point()
            return
        # One frame parks: the ``time.sleep`` and ``go.block`` records, a
        # timer whose callback slot holds the sleeper itself (firing it
        # readies the goroutine, in C on the drive loop), and the yield.
        sched.park_timer(duration, "time.sleep", False, EventKind.SLEEP,
                         {"duration": duration})

    def external_wait(self, what: str, duration: Optional[float] = None) -> None:
        """Block on a modelled external resource (network, disk, subprocess).

        The built-in deadlock detector ignores goroutines parked here — the
        second miss cause the paper identifies in Section 5.3.  With a
        ``duration`` the wait completes on the virtual clock; without one the
        goroutine waits forever.
        """
        sched = self.sched
        if duration is not None:
            # A wake entry, parked as in sleep.
            sched.park_timer(duration, f"external:{what}", True,
                             EventKind.EXTERNAL_WAIT, {"what": what})
            return
        gid = sched.current.gid  # raises outside a goroutine
        if sched.trace.active:
            sched.emit(EventKind.EXTERNAL_WAIT, info={"what": what}, gid=gid)
        while True:
            sched.block(f"external:{what}", external=True)

    # ------------------------------------------------------------------
    # Channels and select
    # ------------------------------------------------------------------

    def make_chan(self, capacity: int = 0, name: Optional[str] = None):
        """Create a channel, like ``make(chan T)`` / ``make(chan T, n)``."""
        from ..chan.channel import Channel

        channel = Channel(self, capacity=capacity, name=name)
        self._channels.append(channel)
        return channel

    def nil_chan(self):
        """A nil channel: every send/receive on it blocks forever."""
        from ..chan.channel import NilChannel

        return NilChannel(self)

    def select(self, *cases, default: bool = False):
        """Wait on multiple channel operations, like Go's ``select``.

        Args:
            cases: :func:`repro.chan.cases.send` / :func:`repro.chan.cases.recv`
                case objects.
            default: when True, behaves like a ``select`` with a ``default``
                branch and returns index ``-1`` immediately if no case is
                ready.

        Returns:
            ``(index, value, ok)``: the chosen case index (``-1`` for
            default), the received value (None for send cases), and the
            channel-open flag.
        """
        from ..chan.select import select as _select

        return _select(self, cases, default=default)

    # ------------------------------------------------------------------
    # Shared-memory synchronization
    # ------------------------------------------------------------------

    def mutex(self, name: Optional[str] = None):
        from ..sync.mutex import Mutex

        return Mutex(self, name=name)

    def rwmutex(self, name: Optional[str] = None, writer_priority: bool = True):
        from ..sync.rwmutex import RWMutex

        return RWMutex(self, name=name, writer_priority=writer_priority)

    def waitgroup(self, name: Optional[str] = None):
        from ..sync.waitgroup import WaitGroup

        return WaitGroup(self, name=name)

    def once(self, name: Optional[str] = None):
        from ..sync.once import Once

        return Once(self, name=name)

    def cond(self, locker, name: Optional[str] = None):
        from ..sync.cond import Cond

        return Cond(self, locker, name=name)

    def atomic_int(self, value: int = 0, name: Optional[str] = None):
        from ..sync.atomic import AtomicInt

        return AtomicInt(self, value, name=name)

    def atomic_value(self, value: Any = None, name: Optional[str] = None):
        from ..sync.atomic import AtomicValue

        return AtomicValue(self, value, name=name)

    def sync_map(self, name: Optional[str] = None):
        """A concurrency-safe map, like ``sync.Map``."""
        from ..sync.syncmap import SyncMap

        return SyncMap(self, name=name)

    def errgroup(self, ctx_parent: Any = None, with_ctx: bool = False):
        """An errgroup, like ``errgroup.Group`` / ``errgroup.WithContext``."""
        from ..stdlib.errgroup import new_group, with_context

        if with_ctx:
            return with_context(self, ctx_parent)
        return new_group(self)

    def shared(self, name: str, value: Any = None):
        """An *unsynchronized* shared variable.

        Accesses through :class:`repro.sync.shared.SharedVar` are visible to
        the data race detector; this models plain Go struct fields and local
        variables captured by anonymous functions.
        """
        from ..sync.shared import SharedVar

        var = SharedVar(self, name, value)
        self._shared_vars.append(var)
        return var

    # ------------------------------------------------------------------
    # Standard-library analogues
    # ------------------------------------------------------------------

    def background(self):
        """Root context, like ``context.Background()``."""
        from ..stdlib.context import background

        return background(self)

    def with_cancel(self, parent):
        from ..stdlib.context import with_cancel

        return with_cancel(self, parent)

    def with_timeout(self, parent, timeout: float):
        from ..stdlib.context import with_timeout

        return with_timeout(self, parent, timeout)

    def with_value(self, parent, key, value):
        from ..stdlib.context import with_value

        return with_value(self, parent, key, value)

    def new_timer(self, duration: float):
        from ..stdlib.gotime import Timer

        return Timer(self, duration)

    def after(self, duration: float):
        """A channel that fires once after ``duration``, like ``time.After``."""
        from ..stdlib.gotime import Timer

        return Timer(self, duration).c

    def new_ticker(self, interval: float):
        from ..stdlib.gotime import Ticker

        return Ticker(self, interval)

    def pipe(self):
        """An in-memory synchronous pipe, like ``io.Pipe()``."""
        from ..stdlib.iopipe import Pipe, PipeReader, PipeWriter

        p = Pipe(self)
        return PipeReader(p), PipeWriter(p)

    # ------------------------------------------------------------------
    # Simulated network (repro.net)
    # ------------------------------------------------------------------

    def network(self, name: Optional[str] = None, *,
                default_latency: float = 0.001,
                log_messages: bool = True):
        """Create a deterministic simulated network fabric (:mod:`repro.net`).

        Nodes join the fabric, listen on ``"node:port"`` addresses and dial
        each other over message-oriented connections with per-link
        virtual-clock latency.  Fault plans reach partitions and link loss
        through the runtime's network list.
        """
        from ..net.fabric import Network

        net = Network(self, name=name, default_latency=default_latency,
                      log_messages=log_messages)
        self._networks.append(net)
        return net


class RunResult:
    """Outcome of one simulated execution.

    Attributes:
        status: ``"ok"`` | ``"leak"`` | ``"deadlock"`` | ``"panic"`` |
            ``"hang"`` | ``"timeout"`` | ``"steps"``.
        main_result: return value of the main goroutine (when it completed).
        leaked: goroutines still blocked after main returned and the
            runnable backlog drained — the paper's goroutine-leak symptom.
        abandoned: goroutines that were still runnable when the run was
            torn down (drain budget exhausted or drain disabled).
        panic_value: the unrecovered panic that aborted the run, if any.
        deadlock: the built-in detector's report, if it fired.
        trace: the full event trace (when ``keep_trace``).
        stuck_host_threads: goroutines whose host threads survived the kill
            join timeout at teardown (previously dropped silently).
        backend: the resolved goroutine vehicle that ran this simulation
            (``"tasklet"`` | ``"thread"``) — what ``backend="coroutine"``
            actually picked.
        compiled: True when the compiled drive loop was available to this
            run's scheduler: a tasklet-vehicle run with the extension
            loaded.  False on the thread vehicle (whose direct handoff
            never enters the loop), with ``REPRO_NO_CEXT=1``, off-platform,
            or under ``force_pure``.  Availability, not engagement:
            ``drive_steps`` says how many steps the loop took.
        drive_steps: steps taken inside the compiled drive loop, 0 when
            it was unavailable; ``steps`` minus this ran on the pure loop.
            Not part of :meth:`to_dict`.
        injected: records of faults the injector fired during this run
            (empty when no fault plan was attached).
        observation: the :class:`repro.observe.Observer` that watched this
            run (``run(..., observe=...)``), carrying the metrics registry,
            profiles, and exporters; None when the run was unobserved.
    """

    def __init__(
        self,
        status: str,
        *,
        seed: int,
        steps: int,
        end_time: float,
        goroutines: Sequence[Goroutine],
        main_result: Any = None,
        leaked: Sequence[Goroutine] = (),
        abandoned: Sequence[Goroutine] = (),
        panic_value: Optional[BaseException] = None,
        panic_goroutine: Optional[Goroutine] = None,
        deadlock: Optional[DeadlockError] = None,
        trace: Optional[Trace] = None,
        stuck_host_threads: Sequence[Goroutine] = (),
        injected: Sequence[Any] = (),
        observation: Optional[Any] = None,
        backend: Optional[str] = None,
        compiled: Optional[bool] = None,
        drive_steps: int = 0,
    ):
        self.status = status
        self.seed = seed
        self.steps = steps
        self.end_time = end_time
        self.goroutines = list(goroutines)
        self.main_result = main_result
        self.leaked = list(leaked)
        self.abandoned = list(abandoned)
        self.panic_value = panic_value
        self.panic_goroutine = panic_goroutine
        self.deadlock = deadlock
        self.trace = trace
        self.stuck_host_threads = list(stuck_host_threads)
        self.injected = list(injected)
        self.observation = observation
        self.backend = backend
        self.compiled = compiled
        self.drive_steps = drive_steps

    @property
    def completed(self) -> bool:
        """True when the main goroutine returned normally."""
        return self.status in ("ok", "leak")

    @property
    def leak_count(self) -> int:
        return len(self.leaked)

    @property
    def blocked_forever(self) -> List[str]:
        """Descriptions of all stuck goroutines (leaked or deadlocked)."""
        if self.deadlock is not None:
            return list(self.deadlock.blocked)
        return [g.describe() for g in self.leaked]

    def to_dict(self) -> dict:
        """A JSON-serializable summary, for ``--json`` CLI output and CI."""
        main_result = self.main_result
        if not isinstance(main_result, (type(None), bool, int, float, str)):
            main_result = repr(main_result)
        return {
            "status": self.status,
            "seed": self.seed,
            "steps": self.steps,
            "virtual_time": self.end_time,
            "main_result": main_result,
            "goroutines": len(self.goroutines),
            "leaked": [g.describe() for g in self.leaked],
            "abandoned": [g.describe() for g in self.abandoned],
            "panic": None if self.panic_value is None else str(self.panic_value),
            "deadlock": list(self.deadlock.blocked) if self.deadlock else None,
            "stuck_host_threads": [g.describe() for g in self.stuck_host_threads],
            "faults_injected": [record.to_dict() if hasattr(record, "to_dict")
                                else record for record in self.injected],
            "backend": self.backend,
            "compiled": self.compiled,
        }

    def __repr__(self) -> str:
        bits = [f"status={self.status!r}", f"seed={self.seed}", f"steps={self.steps}"]
        if self.leaked:
            bits.append(f"leaked={len(self.leaked)}")
        if self.panic_value is not None:
            bits.append(f"panic={self.panic_value!r}")
        return f"<RunResult {' '.join(bits)}>"


def is_stuck(result: RunResult) -> bool:
    """Some goroutine is blocked forever: an all-asleep deadlock, an
    external-wait hang, or a leak.  Module-level so that ``jobs > 1``
    sweeps can pickle it as their predicate."""
    return result.status in ("deadlock", "hang") or bool(result.leaked)


def run(
    main: Callable[[Runtime], Any],
    *,
    seed: int = 0,
    max_steps: int = 1_000_000,
    preempt: bool = True,
    drain: bool = True,
    drain_budget: int = 50_000,
    keep_trace: bool = True,
    observers: Iterable[Any] = (),
    args: Tuple[Any, ...] = (),
    time_limit: Optional[float] = None,
    rng: Optional[Any] = None,
    inject: Optional[Any] = None,
    observe: Any = None,
    backend: str = "coroutine",
    host_join_timeout: Optional[float] = None,
) -> RunResult:
    """Execute ``main(rt, *args)`` under the simulator and classify the outcome.

    Args:
        main: program entry point; receives the :class:`Runtime`.
        seed: scheduler RNG seed.  Same seed, same trace.
        max_steps: livelock backstop on total scheduling steps.  A timer
            fire that leaves no goroutine runnable takes no step but
            counts one against this budget (and against
            ``drain_budget``), so a ticker nobody reads cannot keep a
            blocked run alive: the run ends with status ``"steps"``.
        preempt: make every primitive op a preemption point (richer
            interleavings) instead of only blocking ops.
        drain: after main returns, keep running remaining goroutines (clock
            included) until quiescence so leak classification is precise:
            whatever is still blocked then is blocked forever.  Go itself
            exits immediately; disable to match that exactly.
        drain_budget: step cap for the drain phase, charged the same
            way as ``max_steps``.
        keep_trace: record the event trace on the result.
        observers: objects with an ``attach(runtime)`` method (detectors);
            ``finish(result)`` is called on them at the end when present.
        args: extra positional args passed to ``main`` after the runtime.
        time_limit: stop observing after this much *virtual* time.  Models
            a long-running server: a run cut off here with main still
            blocked gets status ``"timeout"`` — the situation where Go's
            built-in deadlock detector stays silent because other
            goroutines keep running.
        rng: override the scheduler's choice source (anything with
            ``randrange(n)``); used by the systematic explorer.
        inject: a :class:`repro.inject.FaultPlan` (or a prebuilt
            :class:`repro.inject.FaultInjector`) of deterministic faults to
            perturb this run with.  Same ``(seed, plan)``, same trace.
        observe: opt-in observability (:mod:`repro.observe`).  ``True``
            attaches a default :class:`repro.observe.Observer`; pass a
            configured Observer to control site capture and sampling.  The
            observer is a pure trace consumer — attaching it never changes
            the schedule — and lands on ``result.observation``.
        backend: goroutine host backend, ``"coroutine"`` or ``"thread"``.
            ``"coroutine"`` (the default) runs goroutines as single-threaded
            continuations on the in-tree ``"tasklet"`` C extension, and
            falls back to ``"thread"`` (counted in
            :func:`repro.runtime.scheduler.backend_fallbacks`) when that
            extension cannot load.  ``"thread"`` runs one OS thread per
            goroutine.  Both produce bit-identical schedules; the resolved
            vehicle is surfaced as ``result.backend``.
        host_join_timeout: *total* teardown budget in seconds for unwinding
            host threads at the end of the run (default
            :data:`repro.runtime.goroutine.HOST_JOIN_TIMEOUT`); hosts that
            outlive their share of it are declared stuck.  Only
            host threads can consume it — tasklet continuations
            unwind synchronously.  Sweep engines shrink it so one
            pathological seed cannot stall a whole sweep.
    """
    sched = Scheduler(seed=seed, max_steps=max_steps, preempt=preempt,
                      keep_trace=keep_trace, rng=rng, backend=backend)
    if host_join_timeout is not None:
        sched.host_join_timeout = host_join_timeout
    rt = Runtime(sched)
    injector = None
    if inject is not None:
        from ..inject.injector import FaultInjector
        from ..inject.plan import FaultPlan

        injector = (FaultInjector(inject, seed=seed)
                    if isinstance(inject, FaultPlan) else inject)
        injector.attach(rt)
    observation = None
    if observe:
        from ..observe.observer import Observer

        observation = Observer() if observe is True else observe
        observation.attach(rt)
    for obs in observers:
        obs.attach(rt)

    code = getattr(main, "__code__", None)
    main_site = (short_site(code.co_filename, code.co_firstlineno)
                 if code is not None else None)
    main_g = sched.spawn(main, (rt,) + tuple(args), name="main",
                         anonymous=False, creation_site=main_site)

    status: str
    leaked: List[Goroutine] = []
    abandoned: List[Goroutine] = []
    deadlock: Optional[DeadlockError] = None

    try:
        # Structured stop condition ("main is terminal or anything
        # panicked") so the compiled hot loop can check it without a
        # Python call per step; the pure loop reads the same tuple.
        outcome = sched.run_until_quiescent(stop_mode=("main", main_g),
                                            time_limit=time_limit)
        if sched.panicked is not None:
            status = "panic"
        elif outcome == "steps":
            status = "steps"
        elif outcome == "timeout":
            # Observation window closed with the program still going: any
            # goroutine blocked right now — except transient sleepers — is
            # a leak suspect (goleak-style).
            status = "timeout"
            leaked = [
                g for g in sched.blocked_goroutines()
                if g.block_reason != "time.sleep" and not g.external
            ]
        elif outcome == "quiescent":
            # Main is still alive but nothing can run: the built-in
            # detector's condition — unless someone waits on an external
            # resource, which the detector (and Go's) cannot see.
            blocked = sched.blocked_goroutines()
            if any(g.external for g in blocked):
                status = "hang"
                leaked = blocked
            else:
                status = "deadlock"
                leaked = blocked  # every participant is stuck forever
                deadlock = DeadlockError(
                    "all goroutines are asleep - deadlock!",
                    blocked=[g.describe() for g in blocked],
                )
        else:  # main finished
            if drain:
                # Keep running (and let the virtual clock advance, so plain
                # sleepers and armed timers finish) until quiescence: what
                # remains blocked then is blocked *forever*.
                sched.run_until_quiescent(
                    stop_mode=("panic", None),
                    step_budget=drain_budget,
                )
            if sched.panicked is not None:
                status = "panic"
            else:
                leaked = sched.blocked_goroutines()
                abandoned = [
                    g for g in sched.live_goroutines() if g.state != GState.BLOCKED
                ]
                status = "leak" if leaked else "ok"
    finally:
        sched.kill_all()

    result = RunResult(
        status,
        seed=seed,
        steps=sched.steps,
        end_time=sched.clock.now,
        goroutines=sched.goroutines,
        main_result=main_g.result,
        leaked=leaked,
        abandoned=abandoned,
        panic_value=sched.panicked.panic_value if sched.panicked else None,
        panic_goroutine=sched.panicked,
        deadlock=deadlock,
        trace=sched.trace if keep_trace else None,
        stuck_host_threads=[g for g in sched.goroutines if g.stuck_host_thread],
        injected=injector.log if injector is not None else (),
        observation=observation,
        backend=sched.backend,
        compiled=sched._hot is not None,
        drive_steps=sched.drive_steps,
    )
    if observation is not None:
        observation.finish(result)
    for obs in observers:
        finish = getattr(obs, "finish", None)
        if finish is not None:
            finish(result)
    rt._teardown()
    return result


def explore(
    main: Callable[[Runtime], Any],
    seeds: Iterable[int],
    *,
    jobs: int = 1,
    **kwargs: Any,
) -> List[Any]:
    """Run ``main`` under every seed; the seed-sweep analogue of rerunning a
    flaky program many times.

    Args:
        jobs: worker processes for the sweep (:mod:`repro.parallel`).  The
            default of 1 runs in-process and returns full
            :class:`RunResult` objects.  With ``jobs > 1`` every run is
            reduced to a picklable :class:`repro.parallel.RunSummary`; the
            list is merged in seed order and is byte-identical to what
            ``sweep_seeds(main, seeds, jobs=1)`` returns.
    """
    if jobs <= 1:
        return [run(main, seed=seed, **kwargs) for seed in seeds]
    from ..parallel import sweep_seeds

    return sweep_seeds(main, seeds, jobs=jobs, **kwargs)
