"""The predictive engine: one recorded run in, a bug report out.

:func:`predict` is the whole offline pipeline — build the
:class:`~repro.predict.model.SyncTrace`, stamp it with the weak
happens-before closure, and run every predictor family:

* ``race`` — :func:`repro.detect.race.predict_races`,
* ``lockorder`` — :func:`repro.detect.lockorder.predict_lock_cycles`,
* ``comm`` — :mod:`repro.predict.comm`,
* ``blocking`` — goroutines observed stuck at end of trace (and recorded
  panics); the recorded run is itself the strongest evidence there is.

No re-execution happens here: :func:`repro.predict.confirm` turns
predictions into replayable witnesses, and
:func:`repro.predict.triage` turns reports into sweep verdicts.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple, Union

from ..detect.hb import weak_stamps
from ..detect.lockorder import predict_lock_cycles
from ..detect.race import predict_races
from .comm import predict_comm
from .model import SyncTrace
from .report import Prediction, PredictReport


def predict(source: Union[SyncTrace, Any], target: str = "trace",
            include_observed: bool = True,
            max_reports_per_var: int = 1) -> PredictReport:
    """Run every predictor over one recorded run.

    Args:
        source: a :class:`SyncTrace`, a live ``RunResult`` (with trace),
            or a sync-event JSON document (str/dict) from
            :func:`repro.observe.sync_events_json`.
        target: label for the report.
        include_observed: also report bugs the recorded run manifested
            outright (stuck goroutines, panics) as the ``blocking``
            family.  Disable to see pure reordering predictions.
        max_reports_per_var: cap on predicted races per variable.
    """
    trace = as_sync_trace(source)
    t0 = time.perf_counter()
    stamps = weak_stamps(trace)

    predictions: List[Prediction] = []
    for report in predict_races(stamps, max_reports_per_var):
        predictions.append(Prediction(
            family="race", rule="data-race",
            detail=(f"{report.var_name}: {report.first.kind} by "
                    f"g{report.first.gid} (step {report.first.step}) can "
                    f"race {report.second.kind} by g{report.second.gid} "
                    f"(step {report.second.step})"),
            obj=report.var_id,
            gids=(report.first.gid, report.second.gid),
            steps=(report.first.step, report.second.step),
            payload=report,
        ))
    for violation in predict_lock_cycles(trace, stamps):
        predictions.append(Prediction(
            family="lockorder", rule="lock-cycle",
            detail=str(violation),
            obj=violation.cycle[0],
            gids=tuple(gid for gid, _h, _w in violation.witnesses),
            steps=(),
            payload=violation,
        ))
    predictions.extend(predict_comm(trace, stamps))

    if include_observed:
        predictions.extend(observed_predictions(trace))

    return PredictReport(
        target=target,
        seed=trace.seed,
        status=trace.status,
        events=len(trace),
        predictions=predictions,
        wall_s=time.perf_counter() - t0,
    )


def observed_predictions(trace: SyncTrace) -> List[Prediction]:
    """Bugs the recorded run manifested outright (no reordering needed)."""
    out: List[Prediction] = []
    for blocked in trace.blocked_at_end():
        name = trace.goroutine_name(blocked.gid)
        site = f" at {blocked.site}" if blocked.site else ""
        out.append(Prediction(
            family="blocking", rule="stuck-goroutine",
            detail=(f"g{blocked.gid} ({name}) still blocked on "
                    f"{blocked.reason}{site} when the run ended "
                    f"(status={trace.status})"),
            obj=blocked.obj,
            gids=(blocked.gid,),
            steps=(blocked.step,),
            payload=blocked,
        ))
    if trace.status == "panic":
        panics = trace.of_kind("go.panic")
        gid = panics[-1].gid if panics else 0
        step = panics[-1].step if panics else trace.steps
        out.append(Prediction(
            family="blocking", rule="panic",
            detail=f"recorded run panicked (goroutine g{gid})",
            gids=(gid,),
            steps=(step,),
        ))
    return out


def as_sync_trace(source: Union[SyncTrace, Any]) -> SyncTrace:
    """Coerce any supported input shape into a :class:`SyncTrace`."""
    if isinstance(source, SyncTrace):
        return source
    if isinstance(source, (str, dict)):
        return SyncTrace.from_json(source)
    if hasattr(source, "trace"):
        return SyncTrace.from_result(source)
    raise TypeError(f"cannot build a SyncTrace from {type(source).__name__}")


def predict_kernel(kernel: Any, fixed: bool = False, runs: int = 25,
                   seed: Optional[int] = None
                   ) -> Tuple[PredictReport, int]:
    """Predict from a single recorded run of a corpus kernel.

    Picks the most adversarial trace available: the first seed in
    ``range(runs)`` where the bug did **not** manifest (prediction has to
    work from a passing run), falling back to seed 0 when the kernel
    manifests deterministically.  Returns ``(report, seed used)``.
    """
    from ..runtime.runtime import run

    program = kernel.fixed if fixed else kernel.buggy
    if seed is None:
        seed = 0
        if not fixed:
            manifesting = set(kernel.manifestation_seeds(range(runs)))
            passing = [s for s in range(runs) if s not in manifesting]
            if passing:
                seed = passing[0]
    result = run(program, seed=seed, **dict(kernel.run_kwargs))
    variant = "fixed" if fixed else "buggy"
    report = predict(result,
                     target=f"{kernel.meta.kernel_id} ({variant})")
    return report, seed
