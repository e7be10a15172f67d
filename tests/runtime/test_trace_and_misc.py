"""Trace structure, reprs, and small runtime surfaces."""

import pytest

from repro import EventKind, GoPanic, run
from repro.runtime.errors import SchedulerStateError
from repro.runtime.scheduler import Scheduler


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
