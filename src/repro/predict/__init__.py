"""repro.predict — offline predictive trace analysis.

The third detector family (after the runtime detectors and the
systematic explorer): consume *one* recorded run — live
``RunResult`` or the sync-event JSON from
:func:`repro.observe.sync_events_json` — relax its happens-before order,
and report bugs reachable in schedules that were never executed:

* predicted data races: the dynamic detector's race rule over the whole
  access history, with a lockset check
  (:func:`repro.detect.race.predict_races`),
* feasible lock-order cycles: the dynamic detector's order graph plus a
  feasibility gate (:func:`repro.detect.lockorder.predict_lock_cycles`),
* lost-signal / send-on-closed / WaitGroup-misuse candidates
  (:mod:`repro.predict.comm`).

Quickstart::

    from repro import run
    from repro.predict import predict, confirm_predictions, triage

    result = run(main, seed=0)
    report = predict(result)           # no re-execution
    print(report.render())

    # Cash predictions in as replayable witnesses:
    confirm_predictions(report, main)

    # Or screen before an expensive sweep:
    if triage(main).needs_search:
        ...  # explore_systematic(...)

See ``docs/PREDICT.md`` for the trace model, the happens-before
relaxation rules, and the soundness caveats.
"""

from ..detect.hb import HBEngine, Stamp, strict_stamps, weak_stamps
from ..detect.lockorder import predict_lock_cycles
from ..detect.race import predict_races
from .confirm import ConfirmOutcome, confirm_predictions, predicate_for
from .engine import as_sync_trace, observed_predictions, predict, predict_kernel
from .model import BlockedGoroutine, SyncTrace
from .comm import predict_comm
from .report import (
    PredictReport,
    PredictScorecardRow,
    Prediction,
    build_predict_scorecard,
    predict_precision,
    predict_recall,
    render_predict_scorecard,
)
from .triage import TriageVerdict, triage, triage_kernel, triage_sweep

__all__ = [
    "BlockedGoroutine",
    "ConfirmOutcome",
    "HBEngine",
    "PredictReport",
    "PredictScorecardRow",
    "Prediction",
    "Stamp",
    "SyncTrace",
    "TriageVerdict",
    "as_sync_trace",
    "build_predict_scorecard",
    "confirm_predictions",
    "observed_predictions",
    "predicate_for",
    "predict",
    "predict_comm",
    "predict_kernel",
    "predict_lock_cycles",
    "predict_precision",
    "predict_races",
    "predict_recall",
    "render_predict_scorecard",
    "strict_stamps",
    "triage",
    "triage_kernel",
    "triage_sweep",
    "weak_stamps",
]
