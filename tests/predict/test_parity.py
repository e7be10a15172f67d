"""Parity: whatever the dynamic detectors catch, predict sees offline.

Satellite contract from the issue: for every kernel where the dynamic
race/deadlock detectors fire (over manifestation-seed sweeps), running
predict on a *single* recorded run — preferring a passing one, the
adversarial input for a predictor — must predict the same bug, or the
kernel must be listed here as out-of-scope with a reason.

The list is currently empty: every dynamically-caught kernel is
predicted from one trace.  If a future kernel legitimately cannot be
predicted offline (e.g. the bug needs an input the recorded run never
exercises), add it with an honest reason rather than weakening the
assertion.
"""

import pytest

from repro.predict import (
    build_predict_scorecard,
    predict_precision,
    predict_recall,
)

#: kernel_id -> why offline prediction cannot see this one.
OUT_OF_SCOPE = {}

RUNS_PER_KERNEL = 15


def test_predict_covers_every_dynamic_detection():
    rows = build_predict_scorecard(runs_per_kernel=RUNS_PER_KERNEL)
    assert rows, "kernel corpus is empty?"

    missed = [r.kernel_id for r in rows
              if r.dynamic_hit and not r.predicted_hit
              and r.kernel_id not in OUT_OF_SCOPE]
    assert not missed, (
        "dynamic detectors fire but predict is silent (add to "
        f"OUT_OF_SCOPE only with a real reason): {missed}")

    # Out-of-scope entries must stay honest: drop them once predicted.
    stale = [kid for kid in OUT_OF_SCOPE
             if any(r.kernel_id == kid and r.predicted_hit for r in rows)]
    assert not stale, f"now predicted, remove from OUT_OF_SCOPE: {stale}"

    # The issue's acceptance floor, and the headline numbers: predict
    # should catch >= 80% of what the dynamic detectors catch without
    # hallucinating on kernels where nothing fires.
    assert predict_recall(rows) >= 0.8
    assert predict_precision(rows) >= 0.8


def test_predict_only_rows_are_the_known_wins():
    # Predicting *more* than the dynamic detectors is the point of the
    # subsystem, but each predict-only row must be a understood win,
    # not noise: shadow-word eviction (Table 12) and WaitGroup
    # Add/Wait misuse (Figure 9) are invisible to the live detectors
    # by design.
    rows = build_predict_scorecard(runs_per_kernel=RUNS_PER_KERNEL)
    predict_only = {r.kernel_id for r in rows
                    if r.agreement == "predict-only"}
    assert predict_only <= {
        "nonblocking-trad-grpc-shadow-eviction",
        "nonblocking-wg-cockroach-add-inside",
    }


@pytest.mark.parametrize("kernel_id", [
    "blocking-mutex-boltdb-392",
    "nonblocking-trad-docker-lost-update",
    "blocking-chan-kubernetes-5316",
])
def test_scorecard_trace_seed_matches_predict_kernel_pick(kernel_id):
    # The seed derived from the dynamic row is the one predict_kernel's
    # own sweep would pick: first passing seed, else 0.
    from repro.bugs import registry
    from repro.predict import predict_kernel

    kernel = registry.get(kernel_id)
    [row] = build_predict_scorecard(kernels=[kernel],
                                    runs_per_kernel=RUNS_PER_KERNEL)
    _, seed = predict_kernel(kernel, runs=RUNS_PER_KERNEL)
    assert row.trace_seed == seed


def test_scorecard_sweeps_each_kernel_once(monkeypatch):
    # evaluate_kernel's manifesting seeds also pick predict's recorded
    # run, so one sweep per kernel serves both columns.
    from collections import Counter

    from repro.bugs import registry
    from repro.bugs.meta import BugKernel

    calls = Counter()
    sweep = BugKernel.manifestation_seeds.__func__

    def counting(cls, seeds, jobs=1, **kwargs):
        calls[cls.meta.kernel_id] += 1
        return sweep(cls, seeds, jobs=jobs, **kwargs)

    monkeypatch.setattr(BugKernel, "manifestation_seeds",
                        classmethod(counting))
    rows = build_predict_scorecard(runs_per_kernel=RUNS_PER_KERNEL)
    assert calls == Counter({k.meta.kernel_id: 1
                             for k in registry.all_kernels()})
    # The committed BENCH_predict.json numbers at 15 runs per kernel.
    assert round(predict_recall(rows), 4) == 1.0
    assert round(predict_precision(rows), 4) == 0.9583
