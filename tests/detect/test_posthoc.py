"""The race and lock-order detectors read the recorded run at ``finish``.

``attach`` keeps the run's records and notes how many there are;
``finish`` replays the records emitted since then to the detector's
handler and drops the trace.  These tests pin that a second ``finish``
changes nothing, that records emitted before ``attach`` are not
replayed, that a finished detector no longer holds the run's trace, and
that a handler wrapped on the instance (as a profiler counting
``on_event`` calls does) sees every replayed record.  A detector reused
across runs (``explore_systematic`` hands one observer list to every run
it explores) reports the attached run alone.
"""

import sys
from types import SimpleNamespace

import pytest

from repro import EventKind, run
from repro.bugs import registry
from repro.detect import ChannelRuleChecker, LockOrderDetector, RaceDetector
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


def inverted_and_leaky(rt):
    """``racy_ab_ba``'s lock inversion, plus a sender nobody receives
    from: a lock-order violation and a channel-rule violation."""
    racy_ab_ba(rt)
    ch = rt.make_chan()
    rt.go(lambda: ch.send(1))
    rt.sleep(1.0)


def quiet(rt):
    """No locks, no channels: nothing for either detector to report."""
    rt.go(lambda: None)
    rt.sleep(1.0)


def _lock_order_verdict(detector, result):
    return (detector.edges, detector.violations,
            result.lock_order_violations)


def _rule_verdict(checker, result):
    return checker.violations, result.rule_violations


REUSABLE = pytest.mark.parametrize(
    "make, verdict", [(LockOrderDetector, _lock_order_verdict),
                      (ChannelRuleChecker, _rule_verdict)],
    ids=["lock-order", "channel-rules"])


@REUSABLE
def test_reused_detector_reports_only_the_attached_run(make, verdict):
    for programs in ((inverted_and_leaky, quiet),
                     (quiet, inverted_and_leaky),
                     (inverted_and_leaky, inverted_and_leaky)):
        reused = make()
        for seed, program in enumerate(programs):
            fresh = make()
            result = run(program, seed=seed, observers=[reused, fresh])
            assert verdict(reused, result) == verdict(fresh, result)
            reused.finish(result)
            assert verdict(reused, result) == verdict(fresh, result)
    # The last run found something, so the comparisons were not vacuous.
    assert verdict(fresh, result)[0]


@REUSABLE
def test_reused_detector_matches_a_fresh_one_over_the_corpus(make, verdict):
    reused = make()
    for kernel in registry.all_kernels():
        for variant in ("buggy", "fixed"):
            fresh = make()
            result = run(getattr(kernel, variant), seed=0,
                         observers=[reused, fresh], **kernel.run_kwargs)
            assert verdict(reused, result) == verdict(fresh, result), \
                f"{kernel.meta.kernel_id}[{variant}]"


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


def _state(race, lockorder):
    return (race.reports, race.final_clocks(), lockorder.edges,
            lockorder.violations)


def test_events_fed_unattached_are_dropped_at_attach():
    """``attach`` rebuilds a detector's state only when the state saw an
    event.  Events fed through ``on_event`` before ``attach`` count: the
    run the detector is then attached to is all it reports."""
    trace, _ = _attach_after((1, EventKind.MEM_WRITE, 9),
                             (2, EventKind.MEM_WRITE, 9),
                             (1, EventKind.MU_LOCK, 1),
                             (1, EventKind.MU_REQUEST, 2))
    for program in (quiet, racy_ab_ba):
        fed, fed_lockorder = RaceDetector(), LockOrderDetector()
        for event in trace:
            fed.on_event(event)
            fed_lockorder.on_event(event)
        # Unattached, the events alone leave a race and an order edge.
        assert fed.reports and fed_lockorder.edges
        race, lockorder = RaceDetector(), LockOrderDetector()
        run(program, seed=0, observers=[fed, fed_lockorder, race, lockorder])
        assert _state(fed, fed_lockorder) == _state(race, lockorder)


def test_constructed_then_attached_matches_a_rebuilt_detector():
    """A detector whose ``__init__`` state serves its first run ends that
    run with the clocks, edges and reports of one whose state ``attach``
    rebuilt after an earlier run, over every pairing of the programs."""
    programs = (quiet, inverted_and_leaky, racy_ab_ba)
    for first in programs:
        for second in programs:
            race, lockorder = RaceDetector(), LockOrderDetector()
            run(first, seed=1, observers=[race, lockorder])
            constructed = RaceDetector(), LockOrderDetector()
            run(second, seed=2, observers=[race, lockorder, *constructed])
            assert _state(race, lockorder) == _state(*constructed)
    # The last pairing found something, so the comparisons were not vacuous.
    assert race.reports and lockorder.edges
