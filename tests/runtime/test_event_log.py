"""The kept event log: plain records, with event objects built on demand.

A traced run appends one ``(step, time, gid, kind, obj, info)`` record per
event; the compiled drive loop stamps each with its ``_steps`` write.
Every consumer reads the records when the run finishes, and
:class:`TraceEvent` objects are built only for a reader that asks for
them: one per replayed record for a detector's handler, and lazily, once,
for post-hoc readers of ``trace.events``.  These tests pin:

* when objects are built — none while a detected run runs, one per
  replayed record at ``finish``; ``len()``, ``kinds()`` and the schedule
  digest and fingerprint build none; the first ``events`` read builds one
  per record and later reads return the same list;
* that the detectors' verdicts do not depend on whether the run keeps its
  trace: race reports and clocks and lock-order edges and cycles are equal
  under ``keep_trace=False`` and ``keep_trace=True``, over the corpus.
"""

import pytest

from repro import EventKind, run
from repro.bugs import registry
from repro.detect import ChannelRuleChecker, LockOrderDetector, RaceDetector
from repro.detect.hb import LOCK_KINDS, STRICT_EDGES
from repro.observe import schedule_fingerprint
from repro.parallel import schedule_digest
from repro.runtime.trace import Trace, TraceEvent


def _corpus_kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


# ---------------------------------------------------------------------------
# When event objects are built
# ---------------------------------------------------------------------------


class _Probe:
    """Notes how many event objects exist when the first observer
    finishes, i.e. once the run itself is over."""

    def __init__(self, built):
        self.built = built

    def attach(self, rt):
        pass

    def finish(self, result):
        self.at_finish = self.built[0]


def test_detected_run_builds_objects_only_for_replayed_records(monkeypatch):
    built = [0]
    init = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)

    kernel = registry.get("blocking-mutex-kubernetes-abba")
    probe = _Probe(built)
    result = run(kernel.buggy, seed=0,
                 observers=[probe, RaceDetector(), ChannelRuleChecker(),
                            LockOrderDetector()],
                 **kernel.run_kwargs)
    trace = result.trace
    assert probe.at_finish == 0

    # Each detector builds one object per record of a kind it reads.
    race_kinds = set(STRICT_EDGES)
    lock_kinds = LOCK_KINDS | {EventKind.MU_REQUEST, EventKind.RW_REQUEST}
    replayed = sum((kind in race_kinds) + (kind in lock_kinds)
                   for kind in trace.kinds())
    assert 0 < sum(kind in race_kinds | lock_kinds
                   for kind in trace.kinds()) < len(trace)
    assert built[0] == replayed

    len(trace)
    list(trace.kinds())
    schedule_digest(result)
    schedule_fingerprint(result)
    assert built[0] == replayed

    events = trace.events
    assert built[0] == replayed + len(trace)
    assert trace.events is events
    assert list(trace) == events
    trace.of_kind(*race_kinds)
    trace.by_goroutine(1)
    assert built[0] == replayed + len(trace)


def test_events_read_builds_only_the_missing_tail():
    trace = Trace()
    trace.emit(1, 0.0, 1, "a")
    first = trace.events
    head = first[0]
    trace.emit(2, 0.5, 2, "b", 7, {"x": 1})
    assert trace.events is first
    assert first[0] is head
    assert first == [TraceEvent(1, 0.0, 1, "a"),
                     TraceEvent(2, 0.5, 2, "b", 7, {"x": 1})]


def test_trace_events_compare_by_value_and_are_unhashable():
    event = TraceEvent(3, 1.0, 2, "chan.send", 5, {"seq": 1})
    assert event == TraceEvent(3, 1.0, 2, "chan.send", 5, {"seq": 1})
    assert event != TraceEvent(3, 1.0, 2, "chan.send", 5, {"seq": 2})
    assert event != TraceEvent(4, 1.0, 2, "chan.send", 5, {"seq": 1})
    assert event != (3, 1.0, 2, "chan.send", 5, {"seq": 1})
    with pytest.raises(TypeError):
        hash(event)


# ---------------------------------------------------------------------------
# Detector verdicts do not depend on keep_trace
# ---------------------------------------------------------------------------


def _detect(kernel, variant, seed, keep_trace):
    race, lockorder = RaceDetector(), LockOrderDetector()
    result = run(getattr(kernel, variant), seed=seed, keep_trace=keep_trace,
                 observers=[race, lockorder], **kernel.run_kwargs)
    return (result.status, result.steps, race.reports, race.final_clocks(),
            lockorder.edges, lockorder.violations)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_detector_verdicts_equal_with_and_without_kept_trace(kernel, variant,
                                                             seed):
    assert (_detect(kernel, variant, seed, keep_trace=False)
            == _detect(kernel, variant, seed, keep_trace=True))
