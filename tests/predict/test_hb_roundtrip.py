"""Round-trip: the exported sync stream rebuilds the live HB closure.

The predictive engine only sees what :func:`repro.observe.sync_events_json`
exports, so the export must carry *every* happens-before-relevant fact.
The pin: replaying the JSON through :class:`repro.predict.HBEngine` in
strict mode must land clock-for-clock on the live
:class:`repro.detect.RaceDetector`'s final vector clocks — over the whole
corpus, buggy and fixed, not a curated subset.  A second pin compares
the per-access clocks the shadow check reads: the unlimited-history
detector must report exactly the races the strict stamps order, and
the live lock-order detector must hold exactly the order edges the
offline rule builds from the weak stamps.
"""

from dataclasses import astuple

import pytest

from repro import run
from repro.bugs import registry
from repro.detect import LockOrderDetector, RaceDetector
from repro.detect.lockorder import request_edges
from repro.observe import SYNC_EVENT_KINDS, sync_events_json
from repro.predict import (HBEngine, SyncTrace, predict_races, strict_stamps,
                           weak_stamps)
from repro.runtime.trace import TraceEvent
from tests.detect.test_lockorder import PROGRAMS as LOCK_PROGRAMS

KERNELS = [k.meta.kernel_id for k in registry.all_kernels()]


def _closures(program, seed, run_kwargs):
    det = RaceDetector(shadow_words=None)
    result = run(program, seed=seed, observers=[det], **run_kwargs)
    trace = SyncTrace.from_json(sync_events_json(result))
    engine = HBEngine(mode="strict")
    for event in trace.events:
        engine.step(event)
    return det.final_clocks(), engine.final_clocks()


@pytest.mark.parametrize("kernel_id", KERNELS)
def test_strict_closure_matches_live_detector(kernel_id):
    kernel = registry.get(kernel_id)
    for program in (kernel.buggy, kernel.fixed):
        live, offline = _closures(program, 0, dict(kernel.run_kwargs))
        for gid, clock in live.items():
            assert offline.get(gid) == clock, (
                f"{kernel_id}: clock for g{gid} diverged after round-trip")


def _race_keys(reports):
    return sorted((r.var_id, r.var_name, astuple(r.first), astuple(r.second))
                  for r in reports)


@pytest.mark.parametrize("kernel_id", KERNELS)
def test_unlimited_detector_matches_strict_stamps(kernel_id):
    kernel = registry.get(kernel_id)
    for program in (kernel.buggy, kernel.fixed):
        for seed in range(5):
            det = RaceDetector(shadow_words=None)
            result = run(program, seed=seed, observers=[det],
                         **dict(kernel.run_kwargs))
            trace = SyncTrace.from_result(result)
            offline = predict_races(trace, strict_stamps(trace))
            assert _race_keys(det.reports) == _race_keys(offline), (
                f"{kernel_id} seed {seed}: live and strict-stamp races differ")


def _lock_order_cases():
    for kernel in registry.all_kernels():
        kwargs = dict(kernel.run_kwargs)
        yield pytest.param([(kernel.buggy, kwargs), (kernel.fixed, kwargs)],
                           id=kernel.meta.kernel_id)
    for program in LOCK_PROGRAMS:
        yield pytest.param([(program, {})], id=program.__name__)


@pytest.mark.parametrize("programs", list(_lock_order_cases()))
def test_live_lock_order_edges_match_offline_rule(programs):
    """Same edges, same first witness, same insertion order."""
    for program, run_kwargs in programs:
        for seed in range(5):
            det = LockOrderDetector()
            result = run(program, seed=seed, observers=[det], **run_kwargs)
            offline = request_edges(weak_stamps(SyncTrace.from_result(result)))
            assert list(det.edges.items()) == [
                (edge, (witnesses[0].event.gid, *edge))
                for edge, witnesses in offline.items()
            ], f"{program.__qualname__} seed {seed}"


def test_json_is_stable_across_identical_runs():
    kernel = registry.get("blocking-mutex-kubernetes-abba")
    kwargs = dict(kernel.run_kwargs)
    first = sync_events_json(run(kernel.buggy, seed=3, **kwargs))
    second = sync_events_json(run(kernel.buggy, seed=3, **kwargs))
    assert first == second


def test_from_json_equals_from_result():
    kernel = registry.get("nonblocking-trad-docker-lost-update")
    result = run(kernel.buggy, seed=1, **dict(kernel.run_kwargs))
    direct = SyncTrace.from_result(result)
    parsed = SyncTrace.from_json(sync_events_json(result))
    assert len(direct) == len(parsed)
    for a, b in zip(direct.events, parsed.events):
        assert (a.step, a.gid, a.kind, a.obj) == (b.step, b.gid, b.kind, b.obj)
    assert parsed.seed == result.seed
    assert parsed.status == result.status
    assert parsed.goroutine_names == direct.goroutine_names


def _sync_events_from_event_view(result):
    """The sync events as read through the trace's cached event objects."""
    return [TraceEvent(e.step, e.time, e.gid, e.kind, e.obj,
                       dict(e.info) if e.info else None)
            for e in result.trace if e.kind in SYNC_EVENT_KINDS]


@pytest.mark.parametrize("kernel_id", KERNELS)
def test_from_result_matches_the_event_view(kernel_id):
    kernel = registry.get(kernel_id)
    for program in (kernel.buggy, kernel.fixed):
        result = run(program, seed=0, **dict(kernel.run_kwargs))
        events = SyncTrace.from_result(result).events
        assert events == _sync_events_from_event_view(result), kernel_id


def test_from_result_builds_one_event_per_sync_record(monkeypatch):
    kernel = registry.get("blocking-mutex-kubernetes-abba")
    result = run(kernel.buggy, seed=0, **dict(kernel.run_kwargs))
    sync = [r for r in result.trace.records() if r[3] in SYNC_EVENT_KINDS]
    assert 0 < len(sync) < len(result.trace)
    built = []
    init = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[3] if len(args) > 3 else kwargs["kind"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    trace = SyncTrace.from_result(result)
    assert built == [r[3] for r in sync]
    assert len(trace.events) == len(sync)
