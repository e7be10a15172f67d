"""Unit tests for the virtual clock and timer heap."""

from repro.runtime.clock import VirtualClock


def test_starts_at_zero():
    clock = VirtualClock()
    assert clock.now == 0.0
    assert clock.advance_to_next() == []


def test_call_after_orders_by_deadline():
    clock = VirtualClock()
    fired = []
    clock.call_after(2.0, lambda: fired.append("b"))
    clock.call_after(1.0, lambda: fired.append("a"))
    for handle in clock.advance_to_next():
        handle.callback()
    assert fired == ["a"]
    assert clock.now == 1.0
    for handle in clock.advance_to_next():
        handle.callback()
    assert fired == ["a", "b"]
    assert clock.now == 2.0


def test_simultaneous_deadlines_fire_in_creation_order():
    clock = VirtualClock()
    fired = []
    clock.call_after(1.0, lambda: fired.append(1))
    clock.call_after(1.0, lambda: fired.append(2))
    handles = clock.advance_to_next()
    for handle in handles:
        handle.callback()
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
    for handle in clock.advance_to_next():
        handle.callback()
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
    for handle in clock.advance(2.0):
        handle.callback()
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
    for handle in clock.advance(0.0):
        handle.callback()
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
    for handle in clock.advance_to_next():
        handle.callback()
    assert fired == ["a", "b"]
    assert clock.now == 1.0


def test_advance_to_next_with_only_cancelled_timers_keeps_time():
    clock = VirtualClock()
    clock.call_after(4.0, lambda: None).cancel()
    assert clock.advance_to_next() == []
    assert clock.now == 0.0
