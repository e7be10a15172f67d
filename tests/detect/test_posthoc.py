"""The race and lock-order detectors read the recorded run at ``finish``.

``attach`` keeps the run's records and notes how many there are;
``finish`` replays the records emitted since then to the detector's
handler and drops the trace.  These tests pin that a second ``finish``
changes nothing, that records emitted before ``attach`` are not
replayed, that a finished detector no longer holds the run's trace, and
that a handler wrapped on the instance (as a profiler counting
``on_event`` calls does) sees every replayed record.
"""

import sys
from types import SimpleNamespace

from repro import EventKind, run
from repro.bugs import registry
from repro.detect import LockOrderDetector, RaceDetector
from repro.detect.hb import STRICT_EDGES
from repro.runtime.trace import Trace


def racy_ab_ba(rt):
    """One unsynchronized write pair and one AB/BA lock inversion."""
    v = rt.shared("v", 0)
    a, b = rt.mutex("A"), rt.mutex("B")

    def one():
        v.store(1)
        a.lock(); b.lock()
        b.unlock(); a.unlock()

    def two():
        v.store(2)
        b.lock(); a.lock()
        a.unlock(); b.unlock()

    rt.go(one)
    rt.sleep(1.0)  # serialize: the inversion never hangs this run
    rt.go(two)
    rt.sleep(1.0)


def test_second_finish_changes_nothing():
    race, lockorder = RaceDetector(), LockOrderDetector()
    result = run(racy_ab_ba, seed=0, observers=[race, lockorder])
    reports, violations = list(race.reports), list(lockorder.violations)
    clocks, edges = race.final_clocks(), dict(lockorder.edges)
    races = result.races
    assert reports and violations
    assert races == reports
    assert result.lock_order_violations == violations

    race.finish(result)
    lockorder.finish(result)
    assert race.reports == reports
    assert race.final_clocks() == clocks
    assert lockorder.violations == violations
    assert lockorder.edges == edges
    assert result.races == races
    assert result.lock_order_violations == violations


def _attach_after(*events):
    """A trace holding ``events``, and a runtime stand-in around it."""
    trace = Trace()
    for step, (gid, kind, obj) in enumerate(events, 1):
        trace.emit(step, 0.0, gid, kind, obj)
    return trace, SimpleNamespace(sched=SimpleNamespace(trace=trace))


def test_records_before_attach_are_not_replayed():
    trace, rt = _attach_after((1, EventKind.MEM_WRITE, 9),
                              (1, EventKind.MU_LOCK, 1))
    race, lockorder = RaceDetector(), LockOrderDetector()
    race.attach(rt)
    lockorder.attach(rt)
    # Replayed with the records above, each would be a hit: a write by
    # g2 unordered with g1's, and g1 requesting lock 2 while holding 1.
    trace.emit(3, 0.0, 2, EventKind.MEM_WRITE, 9)
    trace.emit(4, 0.0, 1, EventKind.MU_REQUEST, 2)
    result = SimpleNamespace()
    race.finish(result)
    lockorder.finish(result)
    assert race.reports == [] and result.races == []
    assert lockorder.edges == {} and result.lock_order_violations == []


def test_finished_detectors_hold_no_trace():
    """Detectors kept past their run do not keep its trace alive: once
    the result goes, the trace is freed by reference counting."""
    race, lockorder = RaceDetector(), LockOrderDetector()
    result = run(racy_ab_ba, seed=0, observers=[race, lockorder])
    trace = result.trace
    del result
    # The only references left: ``trace`` here and getrefcount's argument.
    assert sys.getrefcount(trace) == 2
    assert race.detected and lockorder.detected


def test_a_wrapped_on_event_sees_every_strict_edge_record():
    """``finish`` looks ``on_event`` up on the instance, so a counting
    wrapper put there sees each kept record of a strict-edge kind, in
    order, and the detector reports what an unwrapped one does."""
    programs = [(racy_ab_ba, {})] + [
        (getattr(kernel, variant), kernel.run_kwargs)
        for kernel in registry.all_kernels()[::9]
        for variant in ("buggy", "fixed")]
    for program, run_kwargs in programs:
        wrapped, plain = RaceDetector(), RaceDetector()
        seen = []
        handler = wrapped.on_event

        def counting(event, handler=handler, seen=seen):
            seen.append(event)
            handler(event)

        wrapped.on_event = counting
        result = run(program, seed=0, observers=[wrapped, plain],
                     **run_kwargs)
        kept = [r for r in result.trace.records() if r[3] in STRICT_EDGES]
        assert kept
        assert [(e.step, e.gid, e.kind, e.obj) for e in seen] == [
            (r[0], r[2], r[3], r[4]) for r in kept]
        assert wrapped.reports == plain.reports
        assert wrapped.final_clocks() == plain.final_clocks()
