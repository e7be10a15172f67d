"""Kind-routed detectors see the same run as unrouted ones.

``RaceDetector`` subscribes to the kinds of the strict edge table and
``LockOrderDetector`` to its request and lock kinds, so the trace calls
them only for those events.  Every other kind is one their handlers
ignore, so the verdicts must equal those of the same detectors fed every
event.  Each run here carries both forms at once: a routed and an
unrouted copy of each detector see one and the same event stream.  A new
edge-table row or lock kind that the subscription misses shows up as a
difference in clocks, reports or edges.
"""

import pytest

from repro import run
from repro.bugs import registry
from repro.detect import LockOrderDetector, RaceDetector


class _Unrouted:
    """Attaches a detector's handler to every event kind."""

    def __init__(self, detector):
        self.detector = detector

    def attach(self, rt):
        rt.sched.trace.subscribe(self.detector.on_event)

    def finish(self, result):
        pass


def _kernels():
    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
@pytest.mark.parametrize("kernel", _kernels(), ids=lambda k: k.meta.kernel_id)
def test_routed_detectors_match_unrouted(kernel, variant, seed):
    race, lockorder = RaceDetector(), LockOrderDetector()
    race_all, lockorder_all = RaceDetector(), LockOrderDetector()
    run(getattr(kernel, variant), seed=seed, keep_trace=False,
        observers=[race, lockorder, _Unrouted(race_all),
                   _Unrouted(lockorder_all)],
        **kernel.run_kwargs)
    assert race.reports == race_all.reports
    assert race.final_clocks() == race_all.final_clocks()
    assert lockorder.edges == lockorder_all.edges
    assert lockorder.analyze() == lockorder_all.analyze()
