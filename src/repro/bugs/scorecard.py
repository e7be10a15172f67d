"""Corpus scorecard: every kernel against every detector.

The GoBench-style artifact downstream detector authors want: a matrix of
(kernel × detector) outcomes over the executable corpus, with
manifestation rates.  Used by the scorecard benchmark and available
programmatically::

    from repro.bugs.scorecard import build_scorecard, render_scorecard
    rows = build_scorecard(runs_per_kernel=25)
    print(render_scorecard(rows))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..detect import (
    BuiltinDeadlockDetector,
    ChannelRuleChecker,
    GoroutineLeakDetector,
    LockOrderDetector,
    RaceDetector,
)
from ..runtime.runtime import run
from . import registry
from .meta import BugKernel


@dataclass(frozen=True)
class ScorecardRow:
    """One kernel's outcomes across the detector suite."""

    kernel_id: str
    behavior: str
    subcause: str
    runs: int                             # seeds swept: ``range(runs)``
    manifesting_seeds: Tuple[int, ...]    # seeds the bug showed on
    builtin_deadlock: bool
    leak_detector: bool
    race_detector: bool
    lock_order: bool
    rule_checker: bool

    @property
    def manifestation_rate(self) -> float:
        """Fraction of the swept seeds the bug showed on."""
        return len(self.manifesting_seeds) / self.runs

    @property
    def caught_by_any(self) -> bool:
        return (self.builtin_deadlock or self.leak_detector
                or self.race_detector or self.lock_order or self.rule_checker)


def evaluate_kernel(kernel: BugKernel, runs: int = 25) -> ScorecardRow:
    """Run one kernel's buggy variant through every detector."""
    meta = kernel.meta
    manifest_seeds = kernel.manifestation_seeds(range(runs))
    seed = manifest_seeds[0] if manifest_seeds else 0

    race = RaceDetector()
    rules = ChannelRuleChecker()
    lockorder = LockOrderDetector()
    kwargs = dict(kernel.run_kwargs)
    result = run(kernel.buggy, seed=seed,
                 observers=[race, rules, lockorder], **kwargs)

    # The race detector deserves the same multi-run chance the paper
    # gives it: scan the sweep until it fires once.
    race_hit = race.detected
    if not race_hit:
        for extra_seed in range(min(runs, 10)):
            probe = RaceDetector()
            run(kernel.buggy, seed=extra_seed, observers=[probe],
                **dict(kernel.run_kwargs))
            if probe.detected:
                race_hit = True
                break

    return ScorecardRow(
        kernel_id=meta.kernel_id,
        behavior=str(meta.behavior),
        subcause=str(meta.subcause),
        runs=runs,
        manifesting_seeds=tuple(manifest_seeds),
        builtin_deadlock=BuiltinDeadlockDetector().classify(result),
        leak_detector=GoroutineLeakDetector().classify(result),
        race_detector=race_hit,
        lock_order=lockorder.detected,
        rule_checker=rules.detected,
    )


def build_scorecard(kernels: Optional[Sequence[BugKernel]] = None,
                    runs_per_kernel: int = 25) -> List[ScorecardRow]:
    targets = list(kernels) if kernels is not None else registry.all_kernels()
    return [evaluate_kernel(kernel, runs_per_kernel) for kernel in targets]


def render_scorecard(rows: Sequence[ScorecardRow]) -> str:
    from ..study.tables import render

    def mark(hit: bool) -> str:
        return "X" if hit else "."

    body = [
        [
            row.kernel_id,
            f"{row.manifestation_rate:.0%}",
            mark(row.builtin_deadlock),
            mark(row.leak_detector),
            mark(row.race_detector),
            mark(row.lock_order),
            mark(row.rule_checker),
        ]
        for row in rows
    ]
    caught = sum(row.caught_by_any for row in rows)
    table = render(
        ["kernel", "manifests", "builtin", "leak", "race", "lockord", "rules"],
        body,
        title="Corpus scorecard (X = detector fires on the buggy variant)",
    )
    return table + f"\n\ncaught by at least one detector: {caught}/{len(rows)}"
