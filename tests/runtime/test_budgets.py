"""Budget exhaustion: step limits, time limits, drain budgets, hangs.

These are the runner's backstops — each maps one kind of runaway program to
a distinct RunResult classification instead of wedging the harness.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro import run
from repro.runtime._hotloop import force_pure


def _livelock(rt):
    """Two goroutines yielding forever: never blocked, never done."""

    def spin():
        while True:
            rt.gosched()

    rt.go(spin, name="spin-a")
    rt.go(spin, name="spin-b")
    spin()


def test_max_steps_classifies_livelock_as_steps():
    result = run(_livelock, max_steps=500)
    assert result.status == "steps"
    assert result.steps >= 500
    assert result.panic_value is None


def test_max_steps_not_charged_for_quiet_runs():
    def main(rt):
        rt.sleep(1.0)
        return 42

    result = run(main, max_steps=500)
    assert result.status == "ok"
    assert result.main_result == 42
    assert result.steps < 500


def test_time_limit_cuts_off_a_server_loop():
    """A forever-server crosses the observation window: status 'timeout',
    and whatever is blocked right then is reported (sleepers excluded)."""

    def main(rt):
        ch = rt.make_chan(0, name="requests")

        def handler():
            while True:
                ch.recv()

        rt.go(handler, name="handler")
        while True:
            rt.sleep(10.0)

    result = run(main, time_limit=120.0)
    assert result.status == "timeout"
    assert result.end_time >= 120.0
    leaked_names = [g.name for g in result.leaked]
    assert "handler" in leaked_names        # blocked on recv forever
    assert "main" not in leaked_names       # plain sleeper: not a suspect


def test_external_wait_classifies_as_hang_not_deadlock():
    """Blocking on a modelled external resource is the built-in detector's
    blind spot: the run is stuck, but it is not a detectable deadlock."""

    def main(rt):
        rt.external_wait("network: etcd peer")

    result = run(main)
    assert result.status == "hang"
    assert result.deadlock is None
    assert any(g.external for g in result.leaked)


def test_pure_deadlock_still_classified_as_deadlock():
    def main(rt):
        rt.make_chan(0, name="never").recv()

    result = run(main)
    assert result.status == "deadlock"
    assert result.deadlock is not None


def test_drain_budget_bounds_post_main_work():
    """An immortal background spinner cannot wedge the drain phase: the
    budget expires and the goroutine is reported as abandoned."""

    def main(rt):
        def spin():
            while True:
                rt.gosched()

        rt.go(spin, name="immortal")
        return "done"

    result = run(main, drain_budget=200)
    assert result.status == "ok"
    assert result.main_result == "done"
    assert "immortal" in [g.name for g in result.abandoned]


def test_drain_disabled_reports_blocked_goroutines_at_exit():
    def main(rt):
        ch = rt.make_chan(0, name="never")

        def waiter():
            ch.recv()

        rt.go(waiter, name="waiter")
        rt.sleep(0.1)

    drained = run(main, drain=True)
    not_drained = run(main, drain=False)
    assert drained.status == "leak"
    assert not_drained.status == "leak"
    assert "waiter" in [g.name for g in not_drained.leaked]


def test_budget_statuses_survive_to_dict():
    result = run(_livelock, max_steps=300)
    data = result.to_dict()
    assert data["status"] == "steps"
    assert data["steps"] >= 300


# A ticker nobody reads fires forever while main blocks for good.  Timer
# fires take no scheduling step, so a fire that wakes nobody counts one
# against the step budget instead.  Each case runs in a child process so
# a hang fails the test instead of wedging the suite.
_IDLE_TICKER = textwrap.dedent("""
    import sys
    from repro import run
    from repro.runtime._hotloop import force_pure

    interval, loop = float(sys.argv[1]), sys.argv[2]

    def main(rt):
        rt.sleep(1.0)
        rt.new_ticker(interval)
        rt.make_chan().recv()

    kwargs = {"backend": "thread"} if loop == "thread" else {}
    if loop == "pure":
        with force_pure():
            result = run(main, max_steps=1000)
    else:
        result = run(main, max_steps=1000, **kwargs)
    print(result.status, result.steps)
""")


@pytest.mark.parametrize("loop", ["compiled", "pure", "thread"])
@pytest.mark.parametrize("interval", [1.0, 1e-300])
def test_an_unread_ticker_cannot_keep_a_blocked_run_alive(loop, interval):
    # 1e-300 does not even move the clock: 1.0 + 1e-300 == 1.0.
    proc = subprocess.run(
        [sys.executable, "-c", _IDLE_TICKER, repr(interval), loop],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["steps", "3"]


def _read_ticks(rt):
    ticker = rt.new_ticker(0.5)
    for _ in range(400):
        ticker.c.recv()
    ticker.stop()
    return rt.now()


@pytest.mark.parametrize("loop", ["compiled", "pure", "thread"])
def test_a_read_ticker_is_not_charged(loop):
    """Every tick wakes the reader, so no fire counts against the budget:
    400 ticks fit in a 1,000-step budget with main's 400 steps."""
    kwargs = {"backend": "thread"} if loop == "thread" else {}
    if loop == "pure":
        with force_pure():
            result = run(_read_ticks, max_steps=1000)
    else:
        result = run(_read_ticks, max_steps=1000, **kwargs)
    assert (result.status, result.main_result) == ("ok", 200.0)
    assert result.steps < 1000
