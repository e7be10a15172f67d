"""A sleeper wakes inside the drive loop.

``Runtime.sleep`` and ``Runtime.external_wait(what, duration)`` arm a
timer whose callback slot holds the sleeping goroutine itself (a *wake
entry*).  The pure loop, the thread vehicle and the injector's clock jump
fire it through ``Scheduler.fire_timers``, which readies the goroutine.
The compiled drive loop readies it in C and calls every other entry
itself, with no ``Scheduler.fire_timers`` call.  Both must write the same
records, leave the same runnable order and take the same schedule.
"""

from functools import partial

import pytest

from repro import run
from repro.detect import RaceDetector
from repro.parallel import schedule_digest
from repro.runtime._hotloop import force_pure, get_drive
from repro.runtime.goroutine import Goroutine
from repro.runtime.scheduler import Scheduler, resolve_backend
from repro.runtime.trace import EventKind

needs_drive_loop = pytest.mark.skipif(
    get_drive() is None or resolve_backend("coroutine") != "tasklet",
    reason="compiled drive loop unavailable on this host")

LOOPS = ("compiled", "pure", "thread")


def _run(program, loop, **kwargs):
    if loop == "pure":
        with force_pure():
            return run(program, **kwargs)
    if loop == "thread":
        return run(program, backend="thread", **kwargs)
    return run(program, **kwargs)


def shared_deadline(rt):
    """Several timers due at t=1.0: a callback armed first that readies
    the sleeper early, a sleep, ``rt.after``, a ticker, an external wait
    and a second sleeper.  Which goroutine arms its timer first (and so
    the order of the batch) depends on the seed."""
    sched = rt.sched
    done = rt.make_chan(8)
    sleeper = []
    woken = []

    def early_ready():
        sched.ready(sleeper[0])

    sched.clock.call_at(1.0, early_ready)

    def sleep_then_report(name):
        me = sched.current
        rt.sleep(1.0)
        # Readied twice at one deadline, it must still be listed once.
        woken.append((name, sched._runnable.count(me)))
        done.send(name)

    def wait_disk():
        rt.external_wait("disk", 1.0)
        done.send("disk")

    sleeper.append(rt.go(sleep_then_report, "sleeper"))
    after = rt.after(1.0)
    ticker = rt.new_ticker(1.0)
    rt.go(wait_disk)
    rt.go(sleep_then_report, "napper")
    names = sorted(done.recv() for _ in range(3))
    after.recv()
    ticker.c.recv()
    ticker.stop()
    return names, sorted(woken)


def _unblocks(result, gid):
    return [r for r in result.trace.records()
            if r[3] == EventKind.GO_UNBLOCK and r[4] == gid]


@pytest.mark.parametrize("seed", range(6))
def test_shared_deadline_is_identical_on_every_loop(seed):
    results = {loop: _run(shared_deadline, loop, seed=seed) for loop in LOOPS}
    compiled = results["compiled"]
    assert compiled.status == "ok"
    names, woken = compiled.main_result
    assert names == ["disk", "napper", "sleeper"]
    assert woken == [("napper", 1), ("sleeper", 1)]
    for loop in ("pure", "thread"):
        other = results[loop]
        assert other.main_result == compiled.main_result
        assert other.steps == compiled.steps
        assert other.trace.records() == compiled.trace.records(), loop
        assert schedule_digest(other) == schedule_digest(compiled)
    # The early callback readied the sleeper; its own timer's wake then
    # finds it runnable and adds no second unblock.
    sleeper = compiled.goroutines[1]
    assert sleeper.name == "sleep_then_report"
    assert len(_unblocks(compiled, sleeper.gid)) == 1
    fires = [r for r in compiled.trace.records()
             if r[3] == EventKind.TIMER_FIRE and r[1] == 1.0]
    assert len(fires) == 6


class _Recorder:
    """Keeps the run's records without a kept trace, like a detector."""

    def attach(self, rt):
        self._trace = rt.sched.trace
        self._trace.keep_records()

    def finish(self, result):
        self.records = list(self._trace.records())


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("seed", [0, 3])
def test_detector_without_kept_trace_matches_plain_untraced(loop, seed):
    plain = _run(shared_deadline, loop, seed=seed, keep_trace=False)
    recorder = _Recorder()
    observed = _run(shared_deadline, loop, seed=seed, keep_trace=False,
                    observers=[RaceDetector(), recorder])
    traced = _run(shared_deadline, loop, seed=seed)
    for result in (observed, traced):
        assert (result.status, result.steps, result.main_result,
                result.end_time) == (plain.status, plain.steps,
                                     plain.main_result, plain.end_time)
    assert observed.trace is None
    assert recorder.records == traced.trace.records()


@pytest.fixture
def fire_calls(monkeypatch):
    """Every ``Scheduler.fire_timers`` call, as the entries it got: a
    goroutine as ``"wake"``, a callback by name."""
    calls = []
    original = Scheduler.fire_timers

    def counted(self, callbacks):
        calls.append([
            "wake" if isinstance(cb, Goroutine)
            else getattr(cb, "__name__", type(cb).__name__)
            for cb in callbacks])
        return original(self, callbacks)

    monkeypatch.setattr(Scheduler, "fire_timers", counted)
    return calls


def sleepers_only(rt):
    done = rt.make_chan(4)

    def nap(i):
        rt.sleep(0.25 * (i % 2 + 1))
        done.send(i)

    for i in range(4):
        rt.go(nap, i)
    rt.sleep(1.0)
    return sorted(done.recv() for _ in range(4))


def mixed_batch(rt):
    """With ``preempt=False`` the timers arm in a fixed order:
    ``first``, ``second`` (t=1.0), main's sleep (t=0.5), the napper's
    sleep (t=1.0), ``third`` (t=1.0), main's second sleep (t=1.0)."""
    clock = rt.sched.clock
    fired = []

    def first():
        fired.append("first")

    def second():
        fired.append("second")

    def third():
        fired.append("third")

    clock.call_at(1.0, first)
    clock.call_at(1.0, second)
    rt.go(rt.sleep, 1.0)
    rt.sleep(0.5)
    clock.call_at(1.0, third)
    rt.sleep(0.5)
    return fired


@needs_drive_loop
def test_a_sleep_only_run_calls_no_python_to_fire(fire_calls):
    result = run(sleepers_only, seed=2)
    assert result.main_result == [0, 1, 2, 3]
    assert len(result.trace.of_kind(EventKind.TIMER_FIRE)) == 5
    assert fire_calls == []


@needs_drive_loop
def test_other_entries_are_called_in_heap_order_without_fire_timers(
        fire_calls):
    compiled = run(mixed_batch, seed=1, preempt=False)
    assert compiled.main_result == ["first", "second", "third"]
    assert fire_calls == []
    with force_pure():
        pure = run(mixed_batch, seed=1, preempt=False)
    assert fire_calls == [["wake"],
                          ["first", "second", "wake", "third", "wake"]]
    # The records interleave each call's ``timer.fire`` with the wakes'.
    assert pure.trace.records() == compiled.trace.records()


class _KeepScheduler:
    def attach(self, rt):
        self.sched = rt.sched


def raising_callback(seen, rt):
    """A callback due at t=1.0 raises, beside a sleeper woken in the same
    batch; it appends the goroutine current when it ran to ``seen``."""
    sched = rt.sched

    def boom():
        seen.append(sched._current)
        raise RuntimeError("boom")

    rt.go(rt.sleep, 1.0)
    sched.clock.call_at(1.0, boom)
    rt.sleep(2.0)


@needs_drive_loop
def test_a_raising_callback_leaves_both_loops_alike():
    states = []
    for loop in ("compiled", "pure"):
        keeper, seen = _KeepScheduler(), []
        with pytest.raises(RuntimeError, match="boom"):
            _run(partial(raising_callback, seen), loop, seed=3,
                 observers=[keeper])
        sched = keeper.sched
        assert seen == [None]
        assert sched._current is None
        states.append((sched._steps, sched._budget_used))
    assert states[0] == states[1]


def arms_a_timer_due_now(rt):
    """``first`` arms ``second`` at the current time, after its batch was
    popped.  At t=1.0 main's wake shares the batch; at t=1.5 ``first`` is
    alone and wakes nobody."""
    clock = rt.sched.clock
    log = []

    def second():
        log.append("second")

    def first():
        log.append("first")
        clock.call_at(clock.now, second)

    clock.call_at(1.0, first)
    clock.call_at(1.5, first)
    rt.sleep(1.0)
    log.append("main")
    rt.sleep(1.0)
    return log


@needs_drive_loop
def test_a_timer_armed_due_now_fires_in_the_next_batch(fire_calls):
    keeper = _KeepScheduler()
    compiled = run(arms_a_timer_due_now, seed=2, observers=[keeper])
    budget = keeper.sched._budget_used
    # At t=1.0 main runs before ``second``'s batch.
    assert compiled.main_result == ["first", "main", "second", "first",
                                    "second"]
    assert fire_calls == []
    with force_pure():
        pure = run(arms_a_timer_due_now, seed=2, observers=[keeper])
    assert fire_calls == [["first", "wake"], ["second"], ["first"],
                          ["second"], ["wake"]]
    assert (pure.main_result, pure.steps, keeper.sched._budget_used) == (
        compiled.main_result, compiled.steps, budget)
    assert pure.trace.records() == compiled.trace.records()


class _ClockKeeper:
    def attach(self, rt):
        self.clock = rt.sched.clock
        self.handles = []
        call_at = self.clock.call_at

        def keep(deadline, callback):
            handle = call_at(deadline, callback)
            self.handles.append(handle)
            return handle

        self.clock.call_at = keep


def leaves_sleepers(rt):
    def nap():
        rt.sleep(100.0)

    def wait():
        rt.external_wait("peer", 100.0)

    rt.go(nap)
    rt.go(wait)
    rt.sleep(1.0)


@pytest.mark.parametrize("loop", LOOPS)
def test_no_timer_holds_a_goroutine_after_the_run(loop):
    keeper = _ClockKeeper()
    result = _run(leaves_sleepers, loop, drain=False, observers=[keeper])
    assert result.status == "leak"
    assert len(keeper.handles) == 3
    assert keeper.clock._heap == []
    assert all(handle.callback is None for handle in keeper.handles)


def woken_early(how, rt):
    """A sleeper readied by an injected (spurious) wakeup at t=0.5 parks
    again and wakes at its own deadline."""
    sched = rt.sched
    done = rt.make_chan(1)

    def nap():
        if how == "sleep":
            rt.sleep(1.0)
        else:
            rt.external_wait("disk", 1.0)
        done.send(rt.now())

    napper = rt.go(nap)
    rt.sleep(0.5)
    assert sched.inject_wakeup(napper)
    return done.recv()


@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("how", ["sleep", "wait"])
def test_a_spurious_wakeup_parks_the_sleeper_again(loop, how):
    results = [_run(partial(woken_early, how), each, seed=2)
               for each in (loop, "compiled")]
    result = results[0]
    assert result.status == "ok"
    assert result.main_result == 1.0
    reason = "time.sleep" if how == "sleep" else "external:disk"
    parks = [r for r in result.trace.records()
             if r[2] == 2 and r[3] == EventKind.GO_BLOCK]
    assert [(r[1], r[5]["reason"]) for r in parks] == [(0.0, reason),
                                                       (0.5, reason)]
    assert repr(result.trace.records()) == repr(results[1].trace.records())
