"""Injector semantics: each fault action observable from inside a program."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import DEADLINE_EXCEEDED, run
from repro.bugs.registry import get
from repro.inject import Fault, FaultPlan
from repro.inject import plans
from repro.inject.injector import FaultInjector
from repro.runtime.errors import GoPanic
from repro.runtime.trace import EventKind


def _plan(*faults, name="test"):
    return FaultPlan(name=name, faults=tuple(faults))


# ----------------------------------------------------------------------
# Goroutine faults
# ----------------------------------------------------------------------


def test_kill_leaves_peers_blocked_forever():
    """Killing the sender of an unbuffered channel models the paper's
    'partner goroutine died' blocking bugs: the receiver leaks."""

    def main(rt):
        ch = rt.make_chan(0, name="handoff")

        def sender():
            rt.sleep(10.0)  # parked long enough for the kill to land
            ch.send(1)

        rt.go(sender, name="sender")
        return ch.recv()

    baseline = run(main, seed=0)
    assert baseline.status == "ok" and baseline.main_result == 1

    result = run(main, seed=0, inject=plans.kill_goroutine("sender", at_step=3))
    assert result.status == "deadlock"
    assert [r.action for r in result.injected] == ["kill"]
    assert "sender" in result.injected[0].victim


def test_panic_injection_raises_gopanic_in_victim():
    def main(rt):
        caught = rt.atomic_int(0, name="caught")

        def worker():
            try:
                rt.sleep(5.0)
            except GoPanic:
                caught.add(1)

        rt.go(worker, name="worker")
        rt.sleep(1.0)
        return caught.load()

    result = run(main, seed=0,
                 inject=plans.panic_goroutine("worker", at_step=3))
    assert result.status == "ok"
    assert result.main_result == 1
    assert [r.action for r in result.injected] == ["panic"]


def test_wakeup_is_harmless_under_wait_loop_discipline():
    """Spurious wakeups may only add interleavings: a mutex-guarded counter
    still ends up exact."""

    def main(rt):
        mu = rt.mutex("mu")
        wg = rt.waitgroup("wg")
        box = {"n": 0}

        def worker():
            for _ in range(5):
                with mu:
                    box["n"] += 1
                rt.gosched()
            wg.done()

        for i in range(4):
            wg.add(1)
            rt.go(worker, name=f"worker-{i}")
        wg.wait()
        return box["n"]

    result = run(main, seed=1,
                 inject=plans.wakeup_storm(every=3, probability=1.0))
    assert result.status == "ok"
    assert result.main_result == 20
    assert any(r.action == "wakeup" for r in result.injected)


def test_delay_parks_runnable_goroutine_but_preserves_results():
    def main(rt):
        ch = rt.make_chan(4, name="out")

        def producer():
            for i in range(4):
                ch.send(i)

        rt.go(producer, name="producer")
        return [ch.recv() for _ in range(4)]

    result = run(main, seed=0,
                 inject=_plan(Fault("delay", target="producer", every=2,
                                    value=0.01, times=3)))
    assert result.status == "ok"
    assert result.main_result == [0, 1, 2, 3]
    assert sum(1 for r in result.injected if r.action == "delay") >= 1


# ----------------------------------------------------------------------
# Environment faults
# ----------------------------------------------------------------------


def test_chan_close_panics_unhardened_sender():
    def main(rt):
        ch = rt.make_chan(2, name="pipe")

        def sender():
            for i in range(50):
                ch.send(i)

        rt.go(sender, name="sender")
        for _ in range(50):
            ch.recv()

    result = run(main, seed=0,
                 inject=plans.close_channels("pipe", at_step=10))
    assert result.status == "panic"
    assert "closed" in str(result.panic_value)
    assert [r.action for r in result.injected] == ["chan_close"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
def test_chan_close_leaves_a_tickers_channel_alone(variant, seed):
    """Closing every channel at step 0 closes the kernel's own channel
    only: the ticker's next fire still sends on an open ``ticker.C``,
    and the run ends with a status instead of raising."""
    kernel = get("nonblocking-chan-etcd-select-ticker")
    result = run(getattr(kernel, variant), seed=seed,
                 inject=_plan(Fault("chan_close", at_step=0, count=8)),
                 **kernel.run_kwargs)
    assert result.status == "panic"
    assert [r.victim for r in result.injected] == ["chan:stopCh"]


def test_chan_close_cannot_close_a_contexts_done_channel():
    """A deadline closes ``ctx.done`` itself; a fault that had closed it
    first would make that close panic out of the timer callback."""

    def main(rt):
        ctx, _cancel = rt.with_timeout(rt.background(), 0.5)
        rt.sleep(1.0)
        return ctx.err()

    result = run(main, seed=0, inject=_plan(
        Fault("chan_close", target="ctx.done", at_step=0)))
    assert result.status == "ok"
    assert result.main_result is DEADLINE_EXCEEDED
    assert result.injected == []


@pytest.mark.parametrize("action", ["chan_close", "chan_fill"])
def test_runtime_library_channels_are_no_fault_targets(action):
    """Timers, tickers, ``time.After``, contexts and pipes build their
    channels themselves; only the program's own channel is a victim."""

    def main(rt):
        mine = rt.make_chan(1, name="mine")
        timer = rt.new_timer(0.2)
        ticker = rt.new_ticker(0.05)
        ctx, cancel = rt.with_timeout(rt.background(), 0.3)
        _reader, _writer = rt.pipe()
        rt.after(0.1).recv()
        ticker.c.recv()
        timer.c.recv()
        ctx.done().recv()
        ticker.stop()
        cancel()
        return mine.closed

    result = run(main, seed=0, inject=_plan(
        Fault(action, at_step=0, count=20, value=0)))
    assert result.status == "ok"
    assert [r.victim for r in result.injected] == ["chan:mine"]


def test_chan_fill_makes_assumed_nonblocking_send_block():
    """The paper's buffered-channel misuse: capacity sized to the number of
    sends, so sends 'cannot block' — until chaos stuffs the buffer."""

    def main(rt):
        ch = rt.make_chan(2, name="results")

        def worker():
            rt.sleep(0.2)  # the fill lands while we are parked here
            ch.send("late")  # blocks forever once the buffer was stuffed

        rt.go(worker, name="worker")
        rt.sleep(1.0)
        return True

    result = run(main, seed=0,
                 inject=plans.fill_channels("results", at_step=2, value="junk"))
    assert result.status == "leak"
    assert any("chan.send" in g.describe() for g in result.leaked)
    record = result.injected[0]
    assert record.action == "chan_fill" and record.detail["stuffed"] >= 1


def test_cancel_storm_cancels_live_contexts():
    def main(rt):
        ctx, _cancel = rt.with_cancel(rt.background())

        def waiter():
            ctx.done().recv()

        rt.go(waiter, name="waiter")
        rt.sleep(5.0)
        return ctx.err() is not None

    result = run(main, seed=0,
                 inject=_plan(Fault("cancel_ctx", after_time=1.0)))
    assert result.status == "ok"
    assert result.main_result is True
    assert [r.action for r in result.injected] == ["cancel_ctx"]


def test_clock_jump_expires_timeout_early():
    def main(rt):
        timer = rt.new_timer(60.0)
        timer.c.recv()
        return rt.now()

    result = run(main, seed=0, inject=plans.clock_jump(100.0, after_time=0.0))
    assert result.status == "ok"
    assert result.main_result >= 60.0
    jump = [r for r in result.injected if r.action == "clock_jump"]
    assert jump and jump[0].detail["timers_fired"] >= 1


# ----------------------------------------------------------------------
# Trigger bookkeeping
# ----------------------------------------------------------------------


def test_times_budget_caps_firings():
    def main(rt):
        def spin():
            for _ in range(100):
                rt.gosched()

        rt.go(spin, name="spin")
        for _ in range(100):
            rt.gosched()

    plan = _plan(Fault("wakeup", every=5, times=2))
    result = run(main, seed=0, inject=plans.delay_storm(
        every=3, probability=1.0, target="spin") + plan)
    delays = [r for r in result.injected if r.action == "delay"]
    wakeups = [r for r in result.injected if r.action == "wakeup"]
    assert len(wakeups) <= 2
    assert len(delays) >= 5  # times=None storms keep firing


def test_no_victim_does_not_consume_the_budget():
    """An at_step fault whose victim appears later still fires."""

    def main(rt):
        rt.sleep(0.5)  # plenty of steps before the worker exists

        def worker():
            rt.sleep(10.0)

        rt.go(worker, name="late-worker")
        rt.sleep(0.1)
        return True

    result = run(main, seed=0,
                 inject=plans.kill_goroutine("late-worker", at_step=1))
    assert [r.action for r in result.injected] == ["kill"]
    assert "late-worker" in result.injected[0].victim


def test_inject_events_appear_in_trace():
    def main(rt):
        rt.sleep(2.0)

    result = run(main, seed=0, inject=plans.clock_jump(0.5, after_time=0.1))
    kinds = [e.kind for e in result.trace]
    assert EventKind.INJECT in kinds


def test_attach_only_plan_that_never_fires_keeps_base_schedule():
    """Merely attaching a plan whose faults never trigger must not change
    the schedule: the injector RNG is separate from the scheduler RNG."""

    def main(rt):
        out = []
        wg = rt.waitgroup("wg")

        def worker(i):
            out.append(i)
            wg.done()

        for i in range(5):
            wg.add(1)
            rt.go(worker, i, name=f"w{i}")
        wg.wait()
        return tuple(out)

    inert = _plan(Fault("kill", target="no-such-goroutine", at_step=10**6))
    for seed in range(6):
        bare = run(main, seed=seed)
        chaotic = run(main, seed=seed, inject=inert)
        assert chaotic.main_result == bare.main_result
        assert chaotic.steps == bare.steps
        assert not chaotic.injected


# ----------------------------------------------------------------------
# The due rule: next_due and pulse agree
# ----------------------------------------------------------------------


def _oracle_due(injector, index, fault, sched):
    """The due test as it stood before ``next_due`` and ``_due`` shared
    one rule: a recurring fault is due once per new ``steps // every``
    epoch; any other fault once ``at_step`` and ``after_time`` are
    reached."""
    remaining = injector._remaining[index]
    if remaining is not None and remaining <= 0:
        return False
    if fault.every is not None:
        epoch = sched.steps // fault.every
        if epoch <= injector._last_epoch[index]:
            return False
        injector._last_epoch[index] = epoch
        return True
    if fault.at_step is not None and sched.steps < fault.at_step:
        return False
    if fault.after_time is not None and sched.clock.now < fault.after_time:
        return False
    return True


@st.composite
def _injector_states(draw):
    """Faults with every trigger mix, each with a remaining budget and a
    last epoch, and the scheduler's step count and clock."""
    faults, remaining, epochs = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        triggers = draw(st.fixed_dictionaries({
            "at_step": st.none() | st.integers(0, 60),
            "after_time": st.none() | st.floats(0.0, 3.0),
            "every": st.none() | st.integers(1, 12),
            "times": st.none() | st.integers(1, 3),
        }).filter(lambda t: (t["at_step"], t["after_time"], t["every"])
                  != (None, None, None)))
        faults.append(Fault(action="wakeup", **triggers))
        times = triggers["times"]
        remaining.append(None if times is None
                         else draw(st.integers(0, times)))
        epochs.append(draw(st.integers(-1, 8)))
    steps = draw(st.integers(0, 80))
    now = draw(st.floats(0.0, 3.0))
    return faults, remaining, epochs, steps, now


def _injector_at(faults, remaining, epochs):
    injector = FaultInjector(_plan(*faults))
    injector._remaining = list(remaining)
    injector._last_epoch = list(epochs)
    return injector


def _oracle_horizon(injector, faults, now):
    """The earliest ``after_time`` above ``now`` of an unspent one-shot
    fault (a recurring fault ignores the clock), or ``inf``."""
    waiting = [fault.after_time for index, fault in enumerate(faults)
               if fault.every is None and fault.after_time is not None
               and now < fault.after_time
               and injector._remaining[index] != 0]
    return min(waiting, default=math.inf)


@settings(max_examples=400, deadline=None)
@given(state=_injector_states(), fraction=st.floats(0.0, 1.0,
                                                    exclude_max=True))
def test_pulse_fires_exactly_from_the_next_due_step(state, fraction):
    """``pulse`` acts exactly when ``next_due`` names a step at or before
    ``sched.steps``, and ``_due`` agrees with the old due test, epochs
    included.  The horizon ``next_due`` names is the earliest
    ``after_time`` an unspent one-shot fault still waits for, and no
    ``after_time`` is crossed below it: at any clock short of it the
    due faults and the next due step are the ones at ``now``."""
    faults, remaining, epochs, steps, now = state
    sched = SimpleNamespace(steps=steps, clock=SimpleNamespace(now=now))

    oracle = _injector_at(faults, remaining, epochs)
    expected = [_oracle_due(oracle, i, f, sched)
                for i, f in enumerate(faults)]
    shared = _injector_at(faults, remaining, epochs)
    assert [shared._due(i, f, sched) for i, f in enumerate(faults)] \
        == expected
    assert shared._last_epoch == oracle._last_epoch

    injector = _injector_at(faults, remaining, epochs)
    due, horizon = injector.next_due(sched)
    assert horizon == _oracle_horizon(injector, faults, now)
    assert type(horizon) is float

    later = now + fraction * (min(horizon, now + 10.0) - now)
    if later < horizon:
        moved = SimpleNamespace(steps=steps,
                                clock=SimpleNamespace(now=later))
        assert _injector_at(faults, remaining, epochs).next_due(moved) \
            == (due, horizon)
        moved_oracle = _injector_at(faults, remaining, epochs)
        assert [_oracle_due(moved_oracle, i, f, moved)
                for i, f in enumerate(faults)] == expected

    fired = []
    injector._fire = lambda index, fault, sched: fired.append(index) or True
    assert injector.pulse(sched) == (due is not None and due <= steps)
    assert fired == [i for i, hit in enumerate(expected) if hit]
