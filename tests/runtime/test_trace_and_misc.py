"""Trace structure, reprs, and small runtime surfaces."""

import pytest

from repro import EventKind, GoPanic, run
from repro.runtime.errors import SchedulerStateError
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Trace, TraceEvent


def test_trace_records_ordered_steps():
    def main(rt):
        ch = rt.make_chan(1)
        ch.send(1)
        ch.recv()

    result = run(main)
    steps = [e.step for e in result.trace]
    assert steps == sorted(steps)
    kinds = set(result.trace.kinds())
    assert EventKind.CHAN_MAKE in kinds
    assert EventKind.CHAN_SEND in kinds
    assert EventKind.CHAN_RECV in kinds


def test_trace_query_helpers():
    def main(rt):
        mu = rt.mutex()
        mu.lock()
        mu.unlock()

    result = run(main)
    locks = result.trace.of_kind(EventKind.MU_LOCK)
    assert len(locks) == 1
    assert locks[0].gid == 1
    assert result.trace.by_goroutine(1)
    assert len(result.trace) > 0
    assert "mutex.lock" in repr(locks[0])


def test_send_events_carry_sequence_and_sync_info():
    def main(rt):
        ch = rt.make_chan()
        rt.go(lambda: ch.send("x"))
        ch.recv()

    result = run(main)
    sends = result.trace.of_kind(EventKind.CHAN_SEND)
    recvs = result.trace.of_kind(EventKind.CHAN_RECV)
    assert sends[0].info["sync"] is True
    assert sends[0].info["seq"] == recvs[0].info["seq"]
    assert "partner" in recvs[0].info


def test_keep_trace_false_skips_recording():
    result = run(lambda rt: rt.make_chan(1).send(1), keep_trace=False)
    assert result.trace is None


def test_trace_listener_sees_live_events():
    seen = []
    trace = Trace()
    trace.subscribe(seen.append)
    event = TraceEvent(step=1, time=0.0, gid=1, kind="x")
    _emit(trace, event)
    assert seen == [event]


def _events(*kinds):
    return [TraceEvent(i, 0.0, 1, kind) for i, kind in enumerate(kinds)]


def _emit(trace, event):
    """Emit ``event``'s fields; listeners and readers get equal copies."""
    trace.emit(event.step, event.time, event.gid, event.kind, event.obj,
               event.info)


def test_kind_listener_receives_only_its_kinds_in_order():
    events = _events("a", "b", "c", "a", "d", "b")
    seen = []
    trace = Trace()
    trace.subscribe(seen.append, kinds=("a", "b"))
    for event in events:
        _emit(trace, event)
    assert seen == [e for e in events if e.kind in ("a", "b")]
    assert trace.events == events


def test_listener_without_kinds_receives_every_event():
    events = _events("a", "b", "c", "z")
    seen = []
    trace = Trace(keep_events=False)
    trace.subscribe(lambda e: None, kinds=("a",))
    trace.subscribe(seen.append)
    for event in events:
        _emit(trace, event)
    assert seen == events
    assert trace.events == []


def test_mixed_listeners_run_in_subscription_order_per_event():
    calls = []
    trace = Trace()
    trace.subscribe(lambda e: calls.append(("all-1", e.kind)))
    trace.subscribe(lambda e: calls.append(("a", e.kind)), kinds={"a"})
    trace.subscribe(lambda e: calls.append(("all-2", e.kind)))
    trace.subscribe(lambda e: calls.append(("ab", e.kind)), kinds=["a", "b"])
    for event in _events("a", "b", "c"):
        _emit(trace, event)
    assert calls == [
        ("all-1", "a"), ("a", "a"), ("all-2", "a"), ("ab", "a"),
        ("all-1", "b"), ("all-2", "b"), ("ab", "b"),
        ("all-1", "c"), ("all-2", "c"),
    ]


def test_trace_active_and_unsubscribe_all():
    kept = Trace()
    assert kept.active
    bare = Trace(keep_events=False)
    assert not bare.active
    seen = []
    bare.subscribe(seen.append, kinds=("a",))
    assert bare.active
    bare.unsubscribe_all()
    assert not bare.active
    bare.emit(1, 0.0, 1, "a")
    assert seen == [] and bare.events == []
    kept.subscribe(seen.append)
    kept.emit(1, 0.0, 1, "a")
    kept.unsubscribe_all()
    assert kept.active
    kept.emit(2, 0.0, 1, "a")
    assert len(seen) == 1 and len(kept) == 2


def test_scheduler_current_outside_run_raises():
    sched = Scheduler()
    with pytest.raises(SchedulerStateError):
        _ = sched.current
    assert sched.current_gid == 0


def test_run_result_repr_mentions_failures():
    leaky = run(lambda rt: (rt.go(lambda: rt.make_chan().recv()), rt.sleep(0.1)))
    assert "leaked=1" in repr(leaky)
    panicky = run(lambda rt: rt.panic("x"))
    assert "panic=" in repr(panicky)


def test_go_panic_str():
    assert str(GoPanic("send on closed channel")) == \
        "panic: send on closed channel"


def test_goroutine_describe_mentions_site_and_reason():
    def main(rt):
        ch = rt.make_chan()
        rt.go(lambda: ch.recv(), name="watcher")
        rt.sleep(0.1)

    result = run(main)
    description = result.leaked[0].describe()
    assert "watcher" in description
    assert "chan.recv" in description
    assert ".py:" in description


def test_primitive_reprs():
    def main(rt):
        mu = rt.mutex("m")
        rw = rt.rwmutex("rw")
        wg = rt.waitgroup("w")
        once = rt.once("o")
        ch = rt.make_chan(2, name="c")
        cond = rt.cond(mu, "cv")
        return [repr(x) for x in (mu, rw, wg, once, ch, cond)]

    reprs = run(main).main_result
    assert any("Mutex" in r for r in reprs)
    assert any("cap=2" in r for r in reprs)
    assert any("waiters=0" in r for r in reprs)


def test_runtime_args_passthrough():
    def main(rt, base, scale):
        return base * scale

    assert run(main, args=(6, 7)).main_result == 42
