"""Prediction records, the per-run report, and the predict-vs-dynamic
scorecard (the Table 8/12-style comparison for the third detector family).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class Prediction:
    """One predicted (or observed) bug from a single recorded run.

    Families:

    * ``race`` — predicted data race (payload: ``RaceReport``);
    * ``lockorder`` — feasible ABBA cycle (payload: ``LockOrderViolation``);
    * ``comm`` — channel/cond/waitgroup misuse candidates
      (rules ``send-on-closed``, ``lost-signal``, ``wg-add-wait-race``);
    * ``blocking`` — goroutines observed stuck in the recorded run itself
      (rule ``stuck-goroutine``) or a recorded panic (rule ``panic``);
      not a reordering prediction, but part of the verdict so a triage
      pass over one run covers the blocking family too.
    """

    family: str
    rule: str
    detail: str
    obj: Optional[int] = None
    gids: Tuple[int, ...] = ()
    steps: Tuple[int, ...] = ()
    payload: Any = None
    #: Schedule prefix replaying to a real counterexample, once confirmed.
    witness: Optional[List[int]] = None
    #: None until a confirm pass runs; then True/False.
    confirmed: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "rule": self.rule,
            "detail": self.detail,
            "obj": self.obj,
            "gids": list(self.gids),
            "steps": list(self.steps),
            "witness": self.witness,
            "confirmed": self.confirmed,
        }

    def __str__(self) -> str:
        mark = {True: " [confirmed]", False: " [unconfirmed]"}.get(
            self.confirmed, "")
        return f"[{self.family}/{self.rule}] {self.detail}{mark}"


@dataclass
class PredictReport:
    """Everything predicted from one recorded run."""

    target: str
    seed: Optional[int]
    status: str
    events: int
    predictions: List[Prediction] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def found(self) -> bool:
        return bool(self.predictions)

    def by_family(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for p in self.predictions:
            counts[p.family] = counts.get(p.family, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "seed": self.seed,
            "status": self.status,
            "events": self.events,
            "found": self.found,
            "families": self.by_family(),
            "predictions": [p.to_dict() for p in self.predictions],
            "wall_s": round(self.wall_s, 4),
        }

    def render(self) -> str:
        head = (f"{self.target} (seed={self.seed}, status={self.status}, "
                f"{self.events} sync events, {self.wall_s:.3f}s)")
        if not self.predictions:
            return head + "\n  no predictions: trace admits no bug we model"
        lines = [head]
        for p in self.predictions:
            lines.append(f"  {p}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Predict-vs-dynamic scorecard
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PredictScorecardRow:
    """One kernel: the dynamic detector suite vs. one-run prediction."""

    kernel_id: str
    behavior: str
    symptom: str
    dynamic_hit: bool            # any dynamic detector fired (scorecard)
    predicted_hit: bool          # predict fired on a single recorded run
    families: Tuple[str, ...]    # which predict families fired
    trace_seed: int              # seed of the analyzed run
    trace_status: str            # status of the analyzed run
    predict_wall_s: float

    @property
    def agreement(self) -> str:
        if self.dynamic_hit and self.predicted_hit:
            return "both"
        if self.dynamic_hit:
            return "dynamic-only"
        if self.predicted_hit:
            return "predict-only"
        return "neither"


def build_predict_scorecard(kernels: Optional[Sequence[Any]] = None,
                            runs_per_kernel: int = 25
                            ) -> List[PredictScorecardRow]:
    """Evaluate predict against the dynamic suite over the corpus.

    For each kernel the dynamic columns come from
    :func:`repro.bugs.scorecard.evaluate_kernel`; the predict column from
    a *single* recorded run of the buggy variant (the first
    non-manifesting seed when one exists — the hard case where the bug
    did not show — else seed 0).  The manifesting seeds come from the
    dynamic row, so each kernel is swept once.
    """
    from ..bugs import registry
    from ..bugs.scorecard import evaluate_kernel
    from .engine import predict_kernel

    targets = list(kernels) if kernels is not None else \
        registry.all_kernels()
    rows: List[PredictScorecardRow] = []
    for kernel in targets:
        dynamic = evaluate_kernel(kernel, runs_per_kernel)
        passing = [s for s in range(runs_per_kernel)
                   if s not in dynamic.manifesting_seeds]
        t0 = time.perf_counter()
        report, seed = predict_kernel(kernel,
                                      seed=passing[0] if passing else 0)
        wall = time.perf_counter() - t0
        rows.append(PredictScorecardRow(
            kernel_id=kernel.meta.kernel_id,
            behavior=str(kernel.meta.behavior),
            symptom=str(kernel.meta.symptom),
            dynamic_hit=dynamic.caught_by_any,
            predicted_hit=report.found,
            families=tuple(sorted(report.by_family())),
            trace_seed=seed,
            trace_status=report.status,
            predict_wall_s=wall,
        ))
    return rows


def predict_recall(rows: Sequence[PredictScorecardRow]) -> float:
    """Fraction of dynamically-caught kernels predict also catches."""
    caught = [r for r in rows if r.dynamic_hit]
    if not caught:
        return 1.0
    return sum(r.predicted_hit for r in caught) / len(caught)


def predict_precision(rows: Sequence[PredictScorecardRow]) -> float:
    """Fraction of predict hits the dynamic suite corroborates.

    A conservative floor: predict-only rows may be real bugs every
    dynamic run missed, but for scorecard purposes the dynamic suite is
    the reference.
    """
    hits = [r for r in rows if r.predicted_hit]
    if not hits:
        return 1.0
    return sum(r.dynamic_hit for r in hits) / len(hits)


def render_predict_scorecard(rows: Sequence[PredictScorecardRow]) -> str:
    from ..study.tables import render

    def mark(hit: bool) -> str:
        return "X" if hit else "."

    body = [
        [
            row.kernel_id,
            mark(row.dynamic_hit),
            mark(row.predicted_hit),
            ",".join(row.families) or "-",
            row.trace_status,
            row.agreement,
        ]
        for row in rows
    ]
    table = render(
        ["kernel", "dynamic", "predict", "families", "trace", "agreement"],
        body,
        title=("Predict-vs-dynamic scorecard "
               "(predict = one recorded run, no re-execution)"),
    )
    return (table
            + f"\n\nrecall vs dynamic: {predict_recall(rows):.0%}"
            + f"   precision vs dynamic: {predict_precision(rows):.0%}")
