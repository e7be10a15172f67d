"""Confirming predictions: from offline claim to replayable witness.

A prediction is a claim about schedules that were never run.  This
module cashes the claim in: for each prediction it derives a runtime
predicate (``stop_on``), hands it to
:func:`repro.detect.systematic.explore_systematic` — whose sleep-set
pruning makes the search cheap — and, when the search
finds a counterexample, replays the schedule with
:func:`repro.detect.systematic.replay_schedule` to verify the witness
stands on its own.  The witness (a choice-index prefix) is attached to
the prediction; ``repro predict --confirm`` prints it.

Race predictions need a detector in the loop: the ``observer_factories``
hook builds a fresh unlimited-history
:class:`~repro.detect.race.RaceDetector` per explored run so the
predicate can read ``result.races``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..detect.race import RaceDetector
from ..detect.systematic import explore_systematic, replay_schedule
from ..runtime.runtime import is_stuck
from .report import Prediction, PredictReport


@dataclass
class ConfirmOutcome:
    """What the schedule search made of one prediction."""

    prediction: Prediction
    confirmed: Optional[bool]      # None = no runtime oracle available
    witness: Optional[List[int]]
    runs: int                      # exploration runs spent (0 if cached)
    replay_status: Optional[str] = None
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "prediction": self.prediction.to_dict(),
            "confirmed": self.confirmed,
            "witness": self.witness,
            "runs": self.runs,
            "replay_status": self.replay_status,
            "note": self.note,
        }


# -- runtime predicates ------------------------------------------------

def _panic_manifested(result: Any) -> bool:
    return result.status == "panic"


def _race_on_var(var_name: str, result: Any) -> bool:
    races = getattr(result, "races", None) or ()
    return any(r.var_name == var_name for r in races)


def _fresh_race_detector() -> RaceDetector:
    # Unlimited history: the predicted pair must not be lost to the
    # 4-shadow-word eviction the dynamic detector models.
    return RaceDetector(shadow_words=None)


def predicate_for(prediction: Prediction,
                  oracle: Optional[Callable[[Any], bool]] = None
                  ) -> Tuple[Optional[Callable[[Any], bool]],
                             Dict[str, Any], Tuple]:
    """``(stop_on, extra run kwargs, cache key)`` for one prediction.

    ``oracle`` (e.g. a kernel's ``manifested``) takes precedence: it is
    the target's own definition of a real counterexample.  Without one,
    each family falls back to its symptom: blocking families search for
    a deadlock/leak, send-on-closed for a panic, races for a re-detected
    race on the same variable.  ``wg-add-wait-race`` has no generic
    runtime symptom (the damage is a wrong value only the program can
    judge), so without an oracle it returns no predicate.
    """
    if oracle is not None:
        return oracle, {}, ("oracle",)
    family, rule = prediction.family, prediction.rule
    if family == "race":
        name = prediction.payload.var_name if prediction.payload else None
        if name is None:
            return None, {}, ("race", None)
        return (partial(_race_on_var, name),
                {"observer_factories": (_fresh_race_detector,)},
                ("race", name))
    if family == "lockorder":
        return is_stuck, {}, ("blocking",)
    if family == "comm":
        if rule in ("send-on-closed", "double-close"):
            return _panic_manifested, {}, ("panic",)
        if rule in ("lost-signal", "abandoned-sender"):
            return is_stuck, {}, ("blocking",)
        return None, {}, ("comm", rule)
    if family == "blocking":
        if rule == "panic":
            return _panic_manifested, {}, ("panic",)
        return is_stuck, {}, ("blocking",)
    return None, {}, (family, rule)


def confirm_predictions(report: PredictReport, program: Callable,
                        run_kwargs: Optional[Dict[str, Any]] = None,
                        oracle: Optional[Callable[[Any], bool]] = None,
                        max_runs: int = 300,
                        max_branch_depth: int = 400) -> List[ConfirmOutcome]:
    """Search for a witness behind every prediction in ``report``.

    Mutates each prediction's ``witness``/``confirmed`` in place and
    returns per-prediction outcomes.  Predictions sharing a predicate
    (e.g. several stuck goroutines from one deadlock) share one search.
    """
    run_kwargs = dict(run_kwargs or {})
    outcomes: List[ConfirmOutcome] = []
    cache: Dict[Tuple, Tuple[Optional[List[int]], bool, int,
                             Optional[str]]] = {}

    for prediction in report.predictions:
        stop_on, extra, key = predicate_for(prediction, oracle)
        if stop_on is None:
            outcomes.append(ConfirmOutcome(
                prediction, confirmed=None, witness=None, runs=0,
                note="no runtime oracle for this rule; pass the "
                     "target's own manifestation predicate to confirm"))
            continue

        if key in cache:
            witness, ok, runs, status = cache[key]
            runs = 0  # shared search, not re-spent
        else:
            merged = dict(run_kwargs)
            merged.update(extra)
            exploration = explore_systematic(
                program, stop_on=stop_on, max_runs=max_runs,
                max_branch_depth=max_branch_depth, **merged)
            witness, ok, status = None, False, None
            if exploration.found:
                witness = list(exploration.counterexample)
                replayed = replay_schedule(program, witness, **merged)
                status = replayed.status
                ok = bool(stop_on(replayed))
            runs = exploration.runs
            cache[key] = (witness, ok, runs, status)

        prediction.confirmed = ok
        prediction.witness = witness if ok else None
        outcomes.append(ConfirmOutcome(
            prediction, confirmed=ok, witness=prediction.witness,
            runs=runs, replay_status=status,
            note="" if ok else "no schedule within budget manifested it"))
    return outcomes
