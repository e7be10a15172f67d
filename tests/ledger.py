"""The committed determinism ledger: kernel runs, explorations, chaos runs.

``tests/golden/ledger.json`` pins three slices:

* per kernel x buggy/fixed x seeds 0-2, one traced run with the kernel's
  own run options under the race and lock-order detectors: its status,
  steps, virtual ``end_time``, ``schedule_digest``, the race, lock-order,
  built-in deadlock and leak verdicts, and whether the kernel's symptom
  ``manifested``;
* per kernel x buggy/fixed, the
  :class:`repro.detect.systematic.Exploration` outcome at ``max_runs=60``
  (the perfbench explore-exhaust call: ``stop_on=kernel.manifested`` and
  the kernel's own run options), and one sha256 over every
  :class:`repro.detect.annotate.PickAnnotation` of every explored run;
* per chaos cell and seed — the six mini-apps under no plan and under
  every ``default_suite()`` plan, the two recovery clusters under
  ``crash_restart()`` and ``crash_storm()``, seeds 0-1 — the run's
  status, steps, fault count, recovery verdict, a sha256 over every
  fired :class:`repro.inject.injector.FaultRecord` and the
  ``schedule_digest`` of its kept trace.

``tests/test_ledger.py`` recomputes it and asserts byte equality, so a
change that moves a kernel run, an exploration, a single footprint the
sleep-set pruning reads, or one fault of one chaos run fails tier-1 even
when it moves the compiled and pure paths alike.

Regenerate only on purpose, and say in CHANGES.md which entries moved
and why::

    PYTHONPATH=src python -m tests.ledger --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro import run
from repro.bugs import registry
from repro.detect import (BuiltinDeadlockDetector, GoroutineLeakDetector,
                          LockOrderDetector, RaceDetector, systematic)
from repro.detect.convergence import recovery_verdict
from repro.inject import FaultPlan, plans, scenarios
from repro.parallel import schedule_digest

LEDGER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "ledger.json")
MAX_RUNS = 60
KERNEL_SEEDS = (0, 1, 2)
CHAOS_SEEDS = (0, 1)


@contextmanager
def _hashing_picks(digest: Any) -> Iterator[None]:
    """Feed every pick annotation of every explored run into ``digest``."""
    real = systematic._run_scripted

    def run_scripted(program, prefix, run_kwargs, annotate):
        choices, result, picks = real(program, prefix, run_kwargs, annotate)
        for pick in picks or ():
            digest.update(repr((pick.position, pick.gids, pick.chosen,
                                sorted(pick.tokens), pick.poisoned)
                               ).encode())
        digest.update(b"|")
        return choices, result, picks

    systematic._run_scripted = run_scripted
    try:
        yield
    finally:
        systematic._run_scripted = real


def kernel_runs() -> Dict[str, Any]:
    """Run every kernel variant's seeds, traced under the race and
    lock-order detectors, and key the entries ``kernel[variant]|seed``."""
    deadlock, leak = BuiltinDeadlockDetector(), GoroutineLeakDetector()
    runs: Dict[str, Any] = {}
    for kernel in registry.all_kernels():
        for variant in ("buggy", "fixed"):
            for seed in KERNEL_SEEDS:
                race, lockorder = RaceDetector(), LockOrderDetector()
                result = run(getattr(kernel, variant), seed=seed,
                             observers=[race, lockorder], **kernel.run_kwargs)
                runs[f"{kernel.meta.kernel_id}[{variant}]|{seed}"] = {
                    "status": result.status,
                    "steps": result.steps,
                    "end_time": result.end_time,
                    "schedule_digest": schedule_digest(result),
                    "race": race.detected,
                    "lockorder": lockorder.detected,
                    "deadlock": deadlock.classify(result),
                    "leak": leak.classify(result),
                    "manifested": kernel.manifested(result),
                }
    return runs


def exploration_entry(found: systematic.Exploration) -> Dict[str, Any]:
    return {
        "runs": found.runs,
        "pruned": found.pruned,
        "exhausted": found.exhausted,
        "counterexample": found.counterexample,
        "statuses": dict(sorted(found.statuses.items())),
    }


def chaos_entry(result: Any) -> Dict[str, Any]:
    faults = hashlib.sha256()
    for record in result.injected:
        faults.update(json.dumps(record.to_dict(), sort_keys=True).encode())
        faults.update(b"\n")
    return {
        "status": result.status,
        "steps": result.steps,
        "faults": len(result.injected),
        "verdict": recovery_verdict(result),
        "faults_sha256": faults.hexdigest(),
        "schedule_digest": schedule_digest(result),
    }


def chaos_grid() -> Iterator[Tuple[str, Callable[..., Any], Dict[str, Any],
                                   Optional[FaultPlan]]]:
    """``(target, program, run kwargs, plan)`` for every chaos cell."""
    for name, program, kwargs in scenarios.all_scenarios():
        for plan in [None, *plans.default_suite()]:
            yield name, program, kwargs, plan
    for name, program, kwargs in scenarios.recovery_scenarios():
        kwargs = {k: v for k, v in kwargs.items() if k != "ok"}
        for plan in (plans.crash_restart(), plans.crash_storm()):
            yield name, program, kwargs, plan


def chaos_cells() -> Dict[str, Any]:
    """Run every chaos cell's seeds directly, traced, and key the entries
    ``target|plan|seed``."""
    cells: Dict[str, Any] = {}
    for name, program, kwargs, plan in chaos_grid():
        plan_name = "baseline" if plan is None else plan.name
        for seed in CHAOS_SEEDS:
            result = run(program, seed=seed, inject=plan, keep_trace=True,
                         **kwargs)
            cells[f"{name}|{plan_name}|{seed}"] = chaos_entry(result)
    return cells


def compute() -> Dict[str, Any]:
    """Run and explore every kernel variant, run every chaos cell, and
    return the ledger document."""
    digest = hashlib.sha256()
    explorations: Dict[str, Any] = {}
    with _hashing_picks(digest):
        for kernel in registry.all_kernels():
            for variant in ("buggy", "fixed"):
                found = systematic.explore_systematic(
                    getattr(kernel, variant), stop_on=kernel.manifested,
                    max_runs=MAX_RUNS, **kernel.run_kwargs)
                explorations[f"{kernel.meta.kernel_id}[{variant}]"] = \
                    exploration_entry(found)
    return {
        "kernel_seeds": list(KERNEL_SEEDS),
        "kernel_runs": kernel_runs(),
        "max_runs": MAX_RUNS,
        "explorations": explorations,
        "pick_annotations_sha256": digest.hexdigest(),
        "chaos_seeds": list(CHAOS_SEEDS),
        "chaos": chaos_cells(),
    }


def dumps(ledger: Dict[str, Any]) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"overwrite {os.path.relpath(LEDGER_PATH)}")
    args = parser.parse_args()
    text = dumps(compute())
    if args.write:
        with open(LEDGER_PATH, "w") as f:
            f.write(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
