"""The tentpole guarantee: a chaos run is a pure function of (seed, plan).

Property-based: random plans drawn from the storm space, random seeds —
re-running must reproduce the status, step count, and the exact fault log,
and the compiled drive loop (which runs between the injector's due steps)
must reproduce the pure loop's.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import run
from repro.chan.cases import recv
from repro.inject import Fault, FaultInjector, FaultPlan
from repro.parallel import schedule_digest
from repro.runtime._hotloop import force_pure, get_drive
from repro.runtime.scheduler import resolve_backend


def workload(rt):
    """A small but fault-rich program: channels, waitgroup, sleeps, select."""
    out = rt.make_chan(4, name="out")
    wg = rt.waitgroup("wg")

    def producer(i):
        rt.sleep(0.01 * i)
        out.send(i)
        wg.done()

    for i in range(3):
        wg.add(1)
        rt.go(producer, i, name=f"prod-{i}")

    got = []
    for _ in range(3):
        got.append(out.recv())
    wg.wait()
    return tuple(sorted(got))


_actions = st.sampled_from(["wakeup", "delay", "clock_jump", "kill", "panic"])


@st.composite
def fault_plans(draw):
    faults = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        action = draw(_actions)
        faults.append(Fault(
            action,
            every=draw(st.integers(min_value=2, max_value=20)),
            probability=draw(st.sampled_from([0.25, 0.5, 1.0])),
            times=draw(st.sampled_from([1, 3, None])),
            value=0.02 if action in ("delay", "clock_jump") else None,
        ))
    return FaultPlan(name=draw(st.sampled_from(["a", "b", "chaos"])),
                     faults=tuple(faults))


def _signature(result):
    return (
        result.status,
        result.steps,
        result.main_result,
        result.end_time,
        [(r.step, r.time, r.action, r.fault_index, r.victim)
         for r in result.injected],
    )


@settings(max_examples=25, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_same_seed_and_plan_reproduce_exactly(plan, seed):
    first = _signature(run(workload, seed=seed, inject=plan))
    second = _signature(run(workload, seed=seed, inject=plan))
    assert first == second


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=10_000))
def test_prebuilt_injector_equals_plan_argument(plan, seed):
    via_plan = _signature(run(workload, seed=seed, inject=plan))
    via_injector = _signature(
        run(workload, seed=seed, inject=FaultInjector(plan, seed=seed)))
    assert via_plan == via_injector


def test_fault_log_replay_is_stable_across_many_repeats():
    from repro.inject import plans

    plan = plans.perturb()
    baseline = _signature(run(workload, seed=7, inject=plan))
    for _ in range(5):
        assert _signature(run(workload, seed=7, inject=plan)) == baseline


def test_different_seeds_usually_diverge():
    from repro.inject import plans

    plan = plans.perturb()
    signatures = {
        str(_signature(run(workload, seed=seed, inject=plan)))
        for seed in range(8)
    }
    assert len(signatures) > 1  # chaos actually varies with the seed


# ---------------------------------------------------------------------------
# Compiled vs pure fault logs over mixed triggers
# ---------------------------------------------------------------------------


def busy_workload(rt):
    """Named producers, a ticking consumer and timers: steps and virtual
    time both move, so step, time and recurring triggers all come due."""
    jobs = rt.make_chan(2, name="jobs")
    done = rt.make_chan(0, name="done")

    def producer(i):
        for n in range(6):
            jobs.send((i, n))
            if n % 2:
                rt.sleep(0.01 * (i + 1))
        done.send(i)

    for i in range(3):
        rt.go(producer, i, name=f"prod-{i}")

    got, finished = 0, 0
    while finished < 3:
        index, _value, _ok = rt.select(recv(jobs), recv(done))
        if index == 0:
            got += 1
        else:
            finished += 1
        rt.sleep(0.001)
    return got


_mixed_actions = st.sampled_from(
    ["wakeup", "delay", "clock_jump", "kill", "panic", "chan_fill"])


@st.composite
def mixed_fault(draw):
    action = draw(_mixed_actions)
    trigger = draw(st.sampled_from(["every", "at_step", "after_time"]))
    kwargs = {
        "every": {"every": draw(st.integers(min_value=2, max_value=25))},
        "at_step": {"at_step": draw(st.integers(min_value=0, max_value=80))},
        "after_time": {"after_time": draw(st.sampled_from(
            [0.0, 0.005, 0.02, 0.1, 0.5]))},
    }[trigger]
    # An unlimited one-shot trigger stays due once reached, and a fault
    # that keeps firing then never lets the step advance: only recurring
    # faults run unlimited.
    times = draw(st.sampled_from(
        [1, 2, 3, None] if trigger == "every" else [1, 2, 3]))
    return Fault(
        action,
        probability=draw(st.sampled_from([0.3, 0.7, 1.0])),
        times=times,
        count=draw(st.sampled_from([1, 2, 3])),
        value=0.01 if action in ("delay", "clock_jump") else None,
        **kwargs,
    )


#: A clock jump at step 5 moves the clock past ``after_time=0.3`` (the
#: program alone sleeps far less), so that fault comes due only through
#: the injector's own jump.
JUMP_THEN_AFTER_TIME = (
    Fault("clock_jump", at_step=5, value=0.5),
    Fault("wakeup", after_time=0.3, times=2),
)
#: A kill whose target never matches: due from step 3 on and never
#: consumed, so every later step pulses.
KILL_NOBODY = (Fault("kill", target="no-such-goroutine", at_step=3),)


@st.composite
def mixed_plans(draw):
    faults = draw(st.lists(mixed_fault(), min_size=1, max_size=4))
    if draw(st.booleans()):
        faults.extend(JUMP_THEN_AFTER_TIME)
    if draw(st.booleans()):
        faults.extend(KILL_NOBODY)
    return FaultPlan(name="mixed", faults=tuple(draw(st.permutations(faults))))


def _fault_log(result):
    return (result.status, result.steps, result.end_time, result.main_result,
            [record.to_dict() for record in result.injected],
            schedule_digest(result))


@settings(max_examples=40, deadline=None)
@given(plan=mixed_plans(), seed=st.integers(min_value=0, max_value=10_000))
@example(plan=FaultPlan(name="pinned", faults=(
    Fault("wakeup", every=4, probability=0.5, times=None),
    Fault("delay", at_step=10, times=3, count=2, value=0.01),
    *JUMP_THEN_AFTER_TIME, *KILL_NOBODY)), seed=1)
def test_compiled_and_pure_fault_logs_match(plan, seed):
    # A recurring chan_fill can feed the consumer forever: the step
    # budget ends such runs, on both loops alike.
    compiled = run(busy_workload, seed=seed, inject=plan, max_steps=3000)
    with force_pure():
        pure = run(busy_workload, seed=seed, inject=plan, max_steps=3000)
    assert _fault_log(compiled) == _fault_log(pure)


def test_jump_makes_after_time_fault_due_and_dead_kill_stays_due():
    """The pinned example's two fixed parts behave as described: only the
    jump brings the ``after_time`` wakeups due, and the kill never fires."""
    assert run(busy_workload, seed=1).end_time < 0.3
    plan = FaultPlan(name="pinned", faults=JUMP_THEN_AFTER_TIME + KILL_NOBODY)
    result = run(busy_workload, seed=1, inject=plan)
    fired = [(record.action, record.step) for record in result.injected]
    assert fired[0] == ("clock_jump", 5)
    assert [step >= 5 for action, step in fired if action == "wakeup"] \
        == [True, True]
    assert all(action != "kill" for action, _step in fired)
    injector = FaultInjector(plan, seed=1)
    run(busy_workload, seed=1, inject=injector)
    assert injector._remaining[2] == 1  # the kill was never consumed


@pytest.mark.skipif(
    get_drive() is None or resolve_backend("coroutine") != "tasklet",
    reason="compiled drive loop unavailable on this host")
@pytest.mark.parametrize("faults", [
    (Fault("wakeup", every=4, probability=0.5, times=None),),
    (Fault("delay", at_step=10, times=3, count=2, value=0.01),
     *JUMP_THEN_AFTER_TIME, Fault("kill", at_step=40)),
    (*KILL_NOBODY, Fault("wakeup", after_time=0.02, times=2)),
], ids=["recurring", "one-shots", "stays-due"])
def test_next_due_is_asked_once_per_drive_entry_or_pulse(faults):
    """A faulted run asks ``next_due`` at most once per drive entry plus
    once per pulse: a drive entry follows each answer that names no due
    fault, and a pulse each answer that does.  Every pulse comes at a
    step the last answer named due, and every step runs inside drive."""
    injector = FaultInjector(FaultPlan(name="count", faults=faults), seed=2)
    next_due, pulse = injector.next_due, injector.pulse
    asked, pulses, entries, early = [], [], [], []

    def counted_next_due(sched):
        asked.append(next_due(sched))
        return asked[-1]

    def counted_pulse(sched):
        due, _horizon = asked[-1]
        if due is None or due > sched.steps:
            early.append(sched.steps)
        pulses.append(sched.steps)
        return pulse(sched)

    class Entries:
        def attach(self, rt):
            hot = rt.sched._hot

            def counted(sched):
                entries.append(sched.steps)
                return hot(sched)

            rt.sched._hot = counted

    injector.next_due = counted_next_due
    injector.pulse = counted_pulse
    result = run(busy_workload, seed=2, inject=injector, observers=[Entries()])
    assert result.injected and pulses and entries
    assert len(asked) <= len(entries) + len(pulses)
    assert early == []
    assert result.drive_steps == result.steps
