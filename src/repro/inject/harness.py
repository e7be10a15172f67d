"""ChaosHarness: sweep fault plans × seeds over programs and score resilience.

The harness generalizes the study's "run it many times" methodology to
chaos: a **target** (a mini-app workload or a bug kernel) is run under every
(plan, seed) cell of a grid, each run fully deterministic, and the results
aggregate into a scorecard.  A target is *clean* under a plan when every
seed passes its own success predicate; kernels instead report their
manifestation rate, which is how ``bench_chaos_resilience`` shows that
perturbation amplifies buggy kernels while leaving fixed ones clean.
"""

from __future__ import annotations

import inspect
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..parallel import map_units
from ..runtime.runtime import RunResult, run
from ..study.tables import render
from .plan import FaultPlan
from .plans import default_suite

#: A target runner: (seed, plan-or-None) -> RunResult.  Runners may take a
#: third ``observe`` argument; the harness passes it when metrics were
#: requested (``ChaosHarness(observe=True)``) and the runner supports it.
Runner = Callable[[int, Optional[FaultPlan]], RunResult]
#: A success predicate over one run.
Predicate = Callable[[RunResult], bool]


def _default_ok(result: RunResult) -> bool:
    """An app workload passes when the run is clean *and* the workload's own
    invariant (returned from main) held."""
    return result.status == "ok" and bool(result.main_result)


@dataclass(frozen=True)
class ChaosTarget:
    """One program under chaos: how to run it, and what "healthy" means."""

    name: str
    runner: Runner
    ok: Predicate
    kind: str = "app"  # "app" | "kernel-buggy" | "kernel-fixed"

    @classmethod
    def from_program(cls, name: str, program: Callable[..., Any],
                     ok: Optional[Predicate] = None,
                     **run_kwargs: Any) -> "ChaosTarget":
        """Wrap a plain ``main(rt)`` program (mini-app workload)."""

        def runner(seed: int, plan: Optional[FaultPlan],
                   observe: Any = None) -> RunResult:
            return run(program, seed=seed, inject=plan, observe=observe,
                       **run_kwargs)

        return cls(name=name, runner=runner, ok=ok or _default_ok)

    @classmethod
    def from_kernel(cls, kernel, variant: str = "buggy") -> "ChaosTarget":
        """Wrap a bug kernel; "healthy" means the symptom did not manifest."""
        run_variant = kernel.run_buggy if variant == "buggy" else kernel.run_fixed

        def runner(seed: int, plan: Optional[FaultPlan],
                   observe: Any = None) -> RunResult:
            return run_variant(seed=seed, inject=plan, observe=observe)

        return cls(
            name=f"{kernel.meta.kernel_id}[{variant}]",
            runner=runner,
            ok=lambda result: not kernel.manifested(result),
            kind=f"kernel-{variant}",
        )


@dataclass
class ChaosCell:
    """Aggregated outcome of one target under one plan across a seed sweep."""

    target: str
    plan: str                      # "baseline" when no faults were injected
    runs: int = 0
    failures: List[int] = field(default_factory=list)  # failing seeds
    statuses: Counter = field(default_factory=Counter)
    faults_fired: int = 0
    steps: int = 0                 # scheduler steps summed over the sweep
    #: Observed aggregates (populated when the harness runs with
    #: ``observe=True``): context switches, peak runnable depth, blocked
    #: events and steps spent blocked, summed/maxed across seeds.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Convergence verdicts ("recovered"/"diverged"/"stuck") for recovery
    #: targets; empty for targets that do not emit one.
    verdicts: Counter = field(default_factory=Counter)

    @property
    def clean(self) -> bool:
        return not self.failures

    @property
    def failure_rate(self) -> float:
        return len(self.failures) / self.runs if self.runs else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "plan": self.plan,
            "runs": self.runs,
            "failures": list(self.failures),
            "failure_rate": self.failure_rate,
            "statuses": dict(self.statuses),
            "faults_fired": self.faults_fired,
            "steps": self.steps,
            "metrics": dict(self.metrics),
            "verdicts": dict(self.verdicts),
            "clean": self.clean,
        }


def _observation_metrics(observation: Any) -> Dict[str, float]:
    """Per-seed metric snapshot (picklable), computed where the observer is."""
    registry = observation.metrics
    return {
        "switches": (registry.counter("sched.switches").value
                     if "sched.switches" in registry else 0),
        "blocked_events": (registry.counter("go.blocks").value
                           if "go.blocks" in registry else 0),
        "blocked_steps": observation.block_profile.total_steps,
        "peak_runnable": (registry.histogram("sched.runnable_depth").max or 0
                          if "sched.runnable_depth" in registry else 0),
    }


def _run_cell_seed(target: "ChaosTarget", plan: Optional[FaultPlan],
                   observing: bool, seed: int) -> Dict[str, Any]:
    """One (seed, plan) unit of a chaos cell, reduced to a picklable record.

    Everything a cell folds — status, the target's own pass/fail verdict,
    fault and step counts, observation metrics — is computed here, in
    whichever process ran the simulation, so parallel sweeps ship back flat
    data instead of live results.
    """
    from ..detect.convergence import recovery_verdict

    if observing:
        result = target.runner(seed, plan, True)
    else:
        result = target.runner(seed, plan)
    observation = getattr(result, "observation", None)
    return {
        "status": result.status,
        "ok": bool(target.ok(result)),
        "faults": len(result.injected),
        "steps": result.steps,
        "metrics": (None if observation is None
                    else _observation_metrics(observation)),
        "verdict": recovery_verdict(result),
    }


class ChaosHarness:
    """Run targets × plans × seeds; collect cells; render the scorecard.

    With ``observe=True`` every run carries a :class:`repro.observe.Observer`
    and each cell aggregates its metrics (context switches, peak runnable
    depth, blocked steps) — the per-cell view of *how* a plan stressed a
    target, not only whether it survived.

    ``jobs > 1`` fans each cell's seed sweep across worker processes
    (:mod:`repro.parallel`).  Serial and parallel sweeps fold the same
    per-seed records in the same seed order, so the resulting cells (and
    ``to_dict()`` output) are byte-identical.
    """

    def __init__(self, seeds: Sequence[int] = tuple(range(10)),
                 observe: bool = False, jobs: int = 1):
        self.seeds = tuple(seeds)
        self.observe = observe
        self.jobs = jobs
        self.cells: List[ChaosCell] = []

    # ------------------------------------------------------------------

    @staticmethod
    def _runner_takes_observe(runner: Runner) -> bool:
        try:
            return len(inspect.signature(runner).parameters) >= 3
        except (TypeError, ValueError):  # pragma: no cover - builtins
            return False

    def run_cell(self, target: ChaosTarget,
                 plan: Optional[FaultPlan]) -> ChaosCell:
        cell = ChaosCell(target=target.name,
                         plan=plan.name if plan is not None else "baseline")
        observing = self.observe and self._runner_takes_observe(target.runner)
        records = map_units([partial(_run_cell_seed, target, plan, observing,
                                     seed) for seed in self.seeds],
                            jobs=self.jobs)
        for seed, record in zip(self.seeds, records):
            cell.runs += 1
            cell.statuses[record["status"]] += 1
            cell.faults_fired += record["faults"]
            cell.steps += record["steps"]
            if record["metrics"] is not None:
                self._fold_metrics(cell, record["metrics"])
            if record["verdict"] is not None:
                cell.verdicts[record["verdict"]] += 1
            if not record["ok"]:
                cell.failures.append(seed)
        self.cells.append(cell)
        return cell

    @staticmethod
    def _fold_metrics(cell: ChaosCell, seed_metrics: Dict[str, float]) -> None:
        metrics = cell.metrics
        metrics["switches"] = (metrics.get("switches", 0)
                               + seed_metrics["switches"])
        metrics["blocked_events"] = (metrics.get("blocked_events", 0)
                                     + seed_metrics["blocked_events"])
        metrics["blocked_steps"] = (metrics.get("blocked_steps", 0)
                                    + seed_metrics["blocked_steps"])
        metrics["peak_runnable"] = max(metrics.get("peak_runnable", 0),
                                       seed_metrics["peak_runnable"])

    def sweep(self, targets: Sequence[ChaosTarget],
              plans: Optional[Sequence[FaultPlan]] = None,
              include_baseline: bool = True) -> List[ChaosCell]:
        """The full grid.  ``plans=None`` uses the default perturbation suite."""
        suite = list(default_suite()) if plans is None else list(plans)
        out: List[ChaosCell] = []
        for target in targets:
            if include_baseline:
                out.append(self.run_cell(target, None))
            for plan in suite:
                out.append(self.run_cell(target, plan))
        return out

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def scorecard(self, cells: Optional[Sequence[ChaosCell]] = None,
                  title: str = "Chaos resilience scorecard") -> str:
        chosen = list(self.cells if cells is None else cells)
        with_metrics = any(cell.metrics for cell in chosen)
        with_verdicts = any(cell.verdicts for cell in chosen)
        rows = []
        for cell in chosen:
            status_text = " ".join(
                f"{status}:{count}" for status, count in sorted(cell.statuses.items())
            )
            row = [
                cell.target,
                cell.plan,
                cell.runs,
                cell.faults_fired,
                status_text,
                f"{len(cell.failures)}/{cell.runs}",
                "CLEAN" if cell.clean else "FAILED",
            ]
            if with_verdicts:
                row.extend([
                    cell.verdicts.get("recovered", 0),
                    cell.verdicts.get("diverged", 0),
                    cell.verdicts.get("stuck", 0),
                ])
            if with_metrics:
                row.extend([
                    cell.steps,
                    int(cell.metrics.get("switches", 0)),
                    int(cell.metrics.get("blocked_steps", 0)),
                    int(cell.metrics.get("peak_runnable", 0)),
                ])
            rows.append(row)
        headers = ["Target", "Plan", "Runs", "Faults", "Statuses",
                   "Failures", "Verdict"]
        if with_verdicts:
            headers.extend(["Recovered", "Diverged", "Stuck"])
        if with_metrics:
            headers.extend(["Steps", "CtxSw", "BlkSteps", "PeakRun"])
        return render(headers, rows, title=title)

    def to_dict(self, cells: Optional[Sequence[ChaosCell]] = None) -> Dict[str, Any]:
        chosen = list(self.cells if cells is None else cells)
        return {
            "seeds": list(self.seeds),
            "cells": [cell.to_dict() for cell in chosen],
            "clean": all(cell.clean for cell in chosen),
        }


# ----------------------------------------------------------------------
# Standard target sets
# ----------------------------------------------------------------------


def app_targets() -> List[ChaosTarget]:
    """The six hardened mini-app workloads (see :mod:`repro.inject.scenarios`)."""
    from . import scenarios

    return [
        ChaosTarget.from_program(name, program, **kwargs)
        for name, program, kwargs in scenarios.all_scenarios()
    ]


def net_app_targets() -> List[ChaosTarget]:
    """The multi-node cluster workloads (see
    :func:`repro.inject.scenarios.net_scenarios`), typically swept against
    network plans — partitions, slow links — rather than the perturbation
    suite."""
    from . import scenarios

    return [
        ChaosTarget.from_program(name, program, **kwargs)
        for name, program, kwargs in scenarios.net_scenarios()
    ]


def recovery_targets() -> List[ChaosTarget]:
    """The supervised crash-recovery cluster workloads (see
    :func:`repro.inject.scenarios.recovery_scenarios`), meant for crash
    plans — their main result is a convergence verdict, so their cells
    grow Recovered/Diverged/Stuck scorecard columns."""
    from . import scenarios

    return [
        ChaosTarget.from_program(name, program, **kwargs)
        for name, program, kwargs in scenarios.recovery_scenarios()
    ]


def kernel_targets(kernel_ids: Optional[Sequence[str]] = None,
                   variant: str = "buggy") -> List[ChaosTarget]:
    """Bug kernels as chaos targets (both corpora by default)."""
    from ..bugs.registry import all_kernels, get

    kernels = (all_kernels() if kernel_ids is None
               else [get(kid) for kid in kernel_ids])
    return [ChaosTarget.from_kernel(k, variant=variant) for k in kernels]


def _manifested_under(kernel, run_variant, plan, seed: int) -> bool:
    return bool(kernel.manifested(run_variant(seed=seed, inject=plan)))


def manifestation_rate(kernel, seeds: Sequence[int],
                       plan: Optional[FaultPlan] = None,
                       variant: str = "buggy", jobs: int = 1) -> float:
    """Fraction of seeds under which the kernel's symptom appears.

    ``jobs > 1`` runs the seeds across worker processes; the rate is
    identical to the serial sweep's.
    """
    run_variant = kernel.run_buggy if variant == "buggy" else kernel.run_fixed
    units = [partial(_manifested_under, kernel, run_variant, plan, seed)
             for seed in seeds]
    verdicts = map_units(units, jobs=jobs)
    return sum(verdicts) / len(seeds) if seeds else 0.0
