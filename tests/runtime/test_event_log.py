"""The kept event log: plain records, with event objects built on demand.

A traced run appends one ``(step, time, gid, kind, obj, info)`` record per
event; the compiled drive loop stamps each with its ``_steps`` write.
:class:`TraceEvent` objects are built only for the listeners of an
event's kind, one object shared by all of them, and lazily, once, for
post-hoc readers of ``trace.events``.  These tests pin:

* when objects are built — during a detected run, one per routed event;
  ``len()``, ``kinds()`` and the schedule digest and fingerprint build
  none; the first ``events`` read builds one per record and later reads
  return the same list;
* that a listener sees what a reader reads — an all-kinds listener's
  events equal the kept log, by value and in order, over the corpus;
* that incremental ``subscribe`` routes every event to the same
  listeners, in the same order, as rebuilding the table from scratch.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_detected_run_builds_one_object_per_routed_event(monkeypatch):
    built = [0]
    init = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    delivered = []
    subscribe = Trace.subscribe

    def spying_subscribe(self, listener, kinds=None):
        def spy(event):
            delivered.append(event)
            listener(event)
        subscribe(self, spy, kinds)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    monkeypatch.setattr(Trace, "subscribe", spying_subscribe)

    kernel = registry.get("blocking-mutex-kubernetes-abba")
    result = run(kernel.buggy, seed=0,
                 observers=[RaceDetector(), ChannelRuleChecker(),
                            LockOrderDetector()],
                 **kernel.run_kwargs)
    trace = result.trace

    routed_kinds = (set(STRICT_EDGES) | LOCK_KINDS
                    | {EventKind.MU_REQUEST, EventKind.RW_REQUEST})
    routed = sum(kind in routed_kinds for kind in trace.kinds())
    assert 0 < routed < len(trace)
    # Both detectors read the lock kinds: they share one object per event.
    assert len(delivered) > routed
    assert len({id(event) for event in delivered}) == routed
    assert built[0] == routed

    len(trace)
    list(trace.kinds())
    schedule_digest(result)
    schedule_fingerprint(result)
    assert built[0] == routed

    events = trace.events
    assert built[0] == routed + len(trace)
    assert trace.events is events
    assert list(trace) == events
    trace.of_kind(*routed_kinds)
    trace.by_goroutine(1)
    assert built[0] == routed + len(trace)


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
# A listener's events are the kept log's events
# ---------------------------------------------------------------------------


class _Recorder:
    """An observer whose all-kinds listener keeps every event it sees."""

    def __init__(self):
        self.seen = []

    def attach(self, rt):
        rt.sched.trace.subscribe(self.seen.append)

    def finish(self, result):
        pass


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_listener_events_equal_kept_log(kernel, variant, seed):
    recorder = _Recorder()
    result = run(getattr(kernel, variant), seed=seed, observers=[recorder],
                 **kernel.run_kwargs)
    assert recorder.seen == result.trace.events
    assert len(recorder.seen) == len(result.trace)


# ---------------------------------------------------------------------------
# Incremental routing vs rebuilding the table on every subscribe
# ---------------------------------------------------------------------------


class _RebuildRouter:
    """Reference: the routing table rebuilt from every subscription so far."""

    def __init__(self):
        self.subscriptions = []
        self.routes = {}
        self.every = ()

    def subscribe(self, listener, kinds=None):
        wanted = None if kinds is None else frozenset(kinds)
        self.subscriptions.append((listener, wanted))
        subs = self.subscriptions
        self.every = tuple(fn for fn, ks in subs if ks is None)
        named = set().union(*(ks for _, ks in subs if ks is not None))
        self.routes = {
            kind: tuple(fn for fn, ks in subs if ks is None or kind in ks)
            for kind in named}

    def emit(self, event):
        for listener in self.routes.get(event.kind, self.every):
            listener(event)


_KINDS = st.sampled_from("abcd")
_SUBSCRIBE = st.tuples(st.just("subscribe"), st.integers(0, 3),
                       st.none() | st.lists(_KINDS, max_size=4))
_EMIT = st.tuples(st.just("emit"), _KINDS)


@given(st.lists(_SUBSCRIBE | _EMIT, max_size=30))
def test_incremental_routing_matches_rebuilt_table(ops):
    def listeners(calls):
        return [lambda e, i=i: calls.append((i, e.step, e.kind))
                for i in range(4)]

    got, want = [], []
    trace, reference = Trace(), _RebuildRouter()
    mine, theirs = listeners(got), listeners(want)
    emitted = []
    for step, op in enumerate(ops):
        if op[0] == "subscribe":
            _, who, kinds = op
            trace.subscribe(mine[who], kinds)
            reference.subscribe(theirs[who], kinds)
        else:
            trace.emit(step, 0.0, 1, op[1])
            reference.emit(TraceEvent(step, 0.0, 1, op[1]))
            emitted.append(TraceEvent(step, 0.0, 1, op[1]))
    assert got == want
    assert trace.events == emitted
