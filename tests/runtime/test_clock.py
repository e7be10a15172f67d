"""Unit tests for the virtual clock and timer heap."""

import pytest

from repro import run
from repro.runtime._hotloop import force_pure
from repro.runtime.clock import VirtualClock
from repro.stdlib import context
from repro.stdlib.gotime import Ticker, Timer


def test_starts_at_zero():
    clock = VirtualClock()
    assert clock.now == 0.0
    assert clock.advance_to_next() == []


def test_call_after_orders_by_deadline():
    clock = VirtualClock()
    fired = []
    clock.call_after(2.0, lambda: fired.append("b"))
    clock.call_after(1.0, lambda: fired.append("a"))
    for callback in clock.advance_to_next():
        callback()
    assert fired == ["a"]
    assert clock.now == 1.0
    for callback in clock.advance_to_next():
        callback()
    assert fired == ["a", "b"]
    assert clock.now == 2.0


def test_simultaneous_deadlines_fire_in_creation_order():
    clock = VirtualClock()
    fired = []
    clock.call_after(1.0, lambda: fired.append(1))
    clock.call_after(1.0, lambda: fired.append(2))
    callbacks = clock.advance_to_next()
    for callback in callbacks:
        callback()
    assert fired == [1, 2]


def test_cancel_prevents_firing():
    clock = VirtualClock()
    fired = []
    handle = clock.call_after(1.0, lambda: fired.append("x"))
    assert handle.cancel() is True
    assert handle.cancel() is False  # already cancelled
    assert clock.advance_to_next() == []
    assert fired == []


def test_cancelled_head_does_not_mask_later_timer():
    clock = VirtualClock()
    fired = []
    head = clock.call_after(1.0, lambda: fired.append("head"))
    clock.call_after(2.0, lambda: fired.append("tail"))
    head.cancel()
    for callback in clock.advance_to_next():
        callback()
    assert fired == ["tail"]
    assert clock.now == 2.0


def test_past_deadline_clamps_to_now():
    clock = VirtualClock()
    clock.advance(5.0)
    handle = clock.call_at(1.0, lambda: None)
    assert handle.deadline == 5.0


def test_advance_pops_everything_due():
    clock = VirtualClock()
    fired = []
    for delay in (0.5, 1.0, 1.5, 3.0):
        clock.call_after(delay, lambda d=delay: fired.append(d))
    for callback in clock.advance(2.0):
        callback()
    assert fired == [0.5, 1.0, 1.5]
    assert clock.now == 2.0


def test_fired_timer_cannot_be_cancelled():
    clock = VirtualClock()
    handle = clock.call_after(1.0, lambda: None)
    clock.advance_to_next()
    assert handle.cancel() is False


def test_negative_delay_is_clamped():
    clock = VirtualClock()
    fired = []
    clock.call_after(-3.0, lambda: fired.append(True))
    for callback in clock.advance(0.0):
        callback()
    assert fired == [True]


def test_advance_to_next_skips_cancelled_and_pops_all_due():
    clock = VirtualClock()
    fired = []
    early = [clock.call_after(0.5, lambda: fired.append("early"))
             for _ in range(3)]
    clock.call_after(1.0, lambda: fired.append("a"))
    middle = clock.call_after(1.0, lambda: fired.append("cancelled"))
    clock.call_after(1.0, lambda: fired.append("b"))
    for handle in early + [middle]:
        handle.cancel()
    for callback in clock.advance_to_next():
        callback()
    assert fired == ["a", "b"]
    assert clock.now == 1.0


def test_advance_to_next_with_only_cancelled_timers_keeps_time():
    clock = VirtualClock()
    clock.call_after(4.0, lambda: None).cancel()
    assert clock.advance_to_next() == []
    assert clock.now == 0.0


def test_a_timer_is_one_heap_entry():
    clock = VirtualClock()
    late = clock.call_after(2.0, lambda: None)
    early = clock.call_after(1.0, lambda: None)
    assert sorted(map(id, clock._heap)) == sorted(map(id, (early, late)))
    assert early == [1.0, 1, early.callback]


def test_fired_and_cancelled_handles_hold_no_callback():
    clock = VirtualClock()
    fired = clock.call_after(1.0, lambda: None)
    cancelled = clock.call_after(1.0, lambda: None)
    assert fired.callback is not None and not fired.cancelled
    cancelled.cancel()
    assert cancelled.callback is None and cancelled.cancelled
    assert len(clock.advance_to_next()) == 1
    assert fired.callback is None and fired.cancelled


def test_callback_cannot_cancel_a_timer_due_at_the_same_time():
    clock = VirtualClock()
    fired = []
    second = []
    clock.call_after(1.0, lambda: fired.append(second[0].cancel()))
    second.append(clock.call_after(1.0, lambda: fired.append("second")))
    for callback in clock.advance_to_next():
        callback()
    assert fired == [False, "second"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("arm", [
    lambda clock, value: clock.call_at(value, lambda: None),
    lambda clock, value: clock.call_after(value, lambda: None),
])
def test_nan_deadline_is_rejected(arm, value):
    clock = VirtualClock()
    live = clock.call_after(1.0, lambda: None)
    with pytest.raises(ValueError):
        arm(clock, value)
    assert clock._heap == [live]
    assert len(clock.advance_to_next()) == 1
    assert clock.now == 1.0


def _sleep_nan(rt, value):
    done = rt.make_chan()

    def sleeper():
        rt.sleep(1.0)
        done.send(True)

    rt.go(rt.sleep, value)
    rt.go(sleeper)
    return done.recv()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("pure", [False, True])
def test_nan_sleep_does_not_wedge_the_clock(pure, value):
    """A NaN deadline at the heap head used to stop the clock: the run
    ended as a deadlock at time 0 with a live 1 s timer pending.  An
    infinite one let the drain jump the clock to ``inf``: the run ended
    ``ok`` with ``end_time=inf``."""
    if pure:
        with force_pure():
            result = run(_sleep_nan, args=(value,), seed=0)
    else:
        result = run(_sleep_nan, args=(value,), seed=0)
    assert result.status == "panic"
    assert isinstance(result.panic_value, ValueError)


@pytest.mark.parametrize("program", [
    lambda rt: rt.after(float("nan")),
    lambda rt: rt.after(float("inf")),
    lambda rt: rt.sleep(float("inf")),
    lambda rt: Timer(rt, float("nan")),
    lambda rt: Ticker(rt, float("nan")),
    lambda rt: context.with_timeout(rt, context.background(rt), float("nan")),
])
def test_nan_durations_raise_value_error(program):
    result = run(program, seed=0)
    assert result.status == "panic"
    assert isinstance(result.panic_value, ValueError)
