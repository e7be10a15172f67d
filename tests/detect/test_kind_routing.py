"""Detectors that replay only their kinds see the same run as full replays.

``RaceDetector`` replays the records of the strict edge table's kinds and
``LockOrderDetector`` those of its request and lock kinds when the run
finishes.  Every other kind is one their handlers ignore, so the verdicts
must equal those of the same detectors fed every record.  Each run here
carries both forms at once: a kind-filtered and a full-replay copy of
each detector read one and the same recorded stream.  A new edge-table
row or lock kind that the filter misses shows up as a difference in
clocks, reports or edges.
"""

import pytest

from repro import run
from repro.bugs import registry
from repro.detect import LockOrderDetector, RaceDetector
from repro.runtime.trace import TraceEvent


class _EveryKind:
    """Replays every record of the run to a detector's handler."""

    def __init__(self, detector):
        self.detector = detector

    def attach(self, rt):
        self.trace = rt.sched.trace
        self.trace.keep_records()

    def finish(self, result):
        for record in self.trace.records():
            self.detector.on_event(TraceEvent(*record))
        self.trace = None


def _kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
@pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k.meta.kernel_id)
def test_kind_filtered_replay_matches_full_replay(kernel, variant, seed):
    race, lockorder = RaceDetector(), LockOrderDetector()
    race_all, lockorder_all = RaceDetector(), LockOrderDetector()
    run(getattr(kernel, variant), seed=seed, keep_trace=False,
        observers=[race, lockorder, _EveryKind(race_all),
                   _EveryKind(lockorder_all)],
        **kernel.run_kwargs)
    assert race.reports == race_all.reports
    assert race.final_clocks() == race_all.final_clocks()
    assert lockorder.edges == lockorder_all.edges
    assert lockorder.analyze() == lockorder_all.analyze()
