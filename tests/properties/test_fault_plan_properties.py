"""Property-based tests: generated faulted runs agree on both loops.

A faulted run stays on the compiled drive loop: it drives up to the
injector's next due step, fires timers below the injector's clock horizon
(the earliest ``after_time`` a fault still waits for) and pulses the
injector between entries.  The pure loop pulses before every decision and
fires every timer itself.  Generated plans of one to four faults — mixed
actions; ``at_step``, ``after_time`` and ``every`` triggers; probability
gates and firing budgets — run over a sleeper, a ticker and a timer
program and over the corpus kernels, buggy and fixed.  Every run must
return (no fault may make ``run()`` raise) and give the same fault log,
trace records, pick log, status, steps, step-budget use and end time on
both loops, on the thread vehicle, and when the same ``(seed, plan)``
runs a second time.  On the compiled loop every step is taken inside
drive.
"""

from hypothesis import example, given, settings, strategies as st

from repro import run
from repro.bugs.registry import all_kernels
from repro.chan.cases import recv
from repro.inject import Fault, FaultInjector, FaultPlan
from repro.runtime._hotloop import force_pure, get_drive
from repro.runtime.scheduler import resolve_backend

SETTINGS = dict(max_examples=60, deadline=None)

COMPILED = get_drive() is not None and resolve_backend("coroutine") == "tasklet"


def sleeper(rt):
    """Named sleepers on staggered periods; main collects their laps."""
    done = rt.make_chan(3, name="done")

    def nap(i):
        for _ in range(4):
            rt.sleep(0.05 * (i + 1))
        done.send(i)

    for i in range(3):
        rt.go(nap, i, name=f"sleeper-{i}")
    return sorted(done.recv() for _ in range(3))


def ticker(rt):
    """A ticker read by a worker, with a quit channel main closes late."""
    tick = rt.new_ticker(0.03)
    quit_ = rt.make_chan(0, name="quit")
    seen = rt.make_chan(1, name="seen")

    def reader():
        n = 0
        while True:
            index, _value, _ok = rt.select(recv(tick.c), recv(quit_))
            if index == 1:
                seen.send(n)
                return
            n += 1

    rt.go(reader, name="reader")
    rt.sleep(0.4)
    tick.stop()
    quit_.close()
    return seen.recv()


def timers(rt):
    """One-shot timers, a reset and a stop, a ``time.After`` race and a
    context deadline (something for a cancellation storm to cancel)."""
    out = rt.make_chan(4, name="out")
    ctx, _cancel = rt.with_timeout(rt.background(), 0.12)

    def waiter(i):
        timer = rt.new_timer(0.02 * (i + 1))
        if i == 1:
            timer.reset(0.15)
        if i == 2 and timer.stop():
            out.send(-i)
            return
        index, _value, _ok = rt.select(recv(timer.c), recv(rt.after(0.1)),
                                       recv(ctx.done()))
        out.send(10 * index + i)

    for i in range(4):
        rt.go(waiter, i, name=f"waiter-{i}")
    return sorted(out.recv() for _ in range(4))


PROGRAMS = {"sleeper": (sleeper, {}), "ticker": (ticker, {}),
            "timers": (timers, {})}

#: The corpus kernels, both variants, each with its own run arguments.
KERNELS = {f"{kernel.meta.kernel_id}[{variant}]":
           (getattr(kernel, variant), kernel.run_kwargs)
           for kernel in all_kernels() for variant in ("buggy", "fixed")}

#: Each of the three programs, or a kernel variant, one in four each.
SOURCES = st.one_of(*(st.just(name) for name in sorted(PROGRAMS)),
                    st.sampled_from(sorted(KERNELS)))

ACTIONS = st.sampled_from(
    ["wakeup", "delay", "clock_jump", "kill", "panic", "chan_fill",
     "chan_close", "cancel_ctx"])


@st.composite
def faults(draw):
    action = draw(ACTIONS)
    trigger = draw(st.sampled_from(["at_step", "after_time", "every",
                                    "both"]))
    kwargs = {}
    if trigger in ("at_step", "both"):
        kwargs["at_step"] = draw(st.integers(0, 60))
    if trigger in ("after_time", "both"):
        kwargs["after_time"] = draw(st.sampled_from(
            [0.0, 0.02, 0.03, 0.05, 0.1, 0.15, 0.3, 1]))
    if trigger == "every":
        kwargs["every"] = draw(st.integers(1, 25))
    # An unlimited one-shot stays due once reached, and one that keeps
    # acting never lets a step run: only recurring faults run unlimited.
    times = draw(st.sampled_from(
        [1, 2, 3, None] if trigger == "every" else [1, 2, 3]))
    return Fault(
        action,
        target=draw(st.sampled_from([None, None, "no-such-*"])),
        probability=draw(st.sampled_from([0.4, 1.0])),
        times=times,
        count=draw(st.integers(1, 2)),
        value=draw(st.sampled_from([0.01, 0.1]))
        if action in ("delay", "clock_jump") else None,
        **kwargs,
    )


PLANS = st.builds(lambda fs: FaultPlan(name="generated", faults=tuple(fs)),
                  st.lists(faults(), min_size=1, max_size=4))


class _Recorder:
    """Keeps the run's scheduler and its pick log."""

    def attach(self, rt):
        self.sched = rt.sched
        self.picks = rt.sched.record_picks()


def _run(program, plan, seed, **options):
    """The run's outcome and its result."""
    main, run_kwargs = PROGRAMS.get(program) or KERNELS[program]
    recorder = _Recorder()
    injector = FaultInjector(plan, seed=seed)
    kwargs = {"max_steps": 2_000, "time_limit": 2.0, **run_kwargs, **options}
    result = run(main, seed=seed, inject=injector, observers=[recorder],
                 **kwargs)
    sched = recorder.sched
    outcome = (
        [record.to_dict() for record in injector.log],
        sched.trace.records(),
        [None if pick is None
         else (pick[0], tuple(g.gid for g in pick[1]), pick[2])
         for pick in recorder.picks],
        result.status,
        sched.steps,
        sched._budget_used,
        sched.clock.now,
    )
    return outcome, result


@settings(**SETTINGS)
@given(program=SOURCES, plan=PLANS, seed=st.integers(0, 1_000))
@example(program="ticker", seed=1, plan=FaultPlan(name="pinned", faults=(
    Fault("wakeup", after_time=0.03, times=2),
    Fault("kill", target="no-such-*", at_step=3),
    Fault("clock_jump", every=7, times=None, value=0.01))))
@example(program="ticker", seed=0, plan=FaultPlan(name="pinned", faults=(
    Fault("chan_close", at_step=0, count=2),)))
@example(program="sleeper", seed=2, plan=FaultPlan(name="pinned", faults=(
    Fault("delay", after_time=0.05, at_step=20, value=0.1, count=2),
    Fault("wakeup", after_time=1, probability=0.4, times=3))))
def test_generated_faulted_runs_agree_on_both_loops(program, plan, seed):
    compiled, result = _run(program, plan, seed)
    with force_pure():
        pure, pure_result = _run(program, plan, seed)
    assert compiled == pure
    assert _run(program, plan, seed)[0] == compiled
    assert _run(program, plan, seed, backend="thread")[0] == compiled
    assert pure_result.drive_steps == 0
    if COMPILED:
        assert result.drive_steps == result.steps
