"""The built-in runtime deadlock detector, as evaluated in Table 8.

Go's scheduler reports ``fatal error: all goroutines are asleep -
deadlock!`` only when *no* goroutine in the process can make progress, and
only counts goroutines parked at Go concurrency primitives.  Our runtime
classifies runs the same way, so this detector simply executes the program
and checks for that terminal status.  Its two documented blind spots fall
out naturally:

1. A *partial* deadlock — some goroutines stuck while main (or anything
   else) keeps running — ends the run with status ``leak``, not
   ``deadlock``: the detector stays silent (19 of the paper's 21
   reproduced blocking bugs).
2. A goroutine waiting on an external resource (``rt.external_wait``)
   keeps the run in status ``hang``: the detector stays silent.

It reports no false positives, matching the paper.
"""

from __future__ import annotations

from typing import Any, Callable

from ..runtime.runtime import RunResult, is_stuck, run
from .report import Detection


class BuiltinDeadlockDetector:
    """Replica of Go's always-on runtime deadlock detector."""

    name = "builtin-deadlock-detector"

    def classify(self, result: RunResult) -> bool:
        """Would Go's runtime have printed the fatal deadlock report?"""
        return result.status == "deadlock"

    def detect(self, program: Callable, seed: int = 0, **run_kwargs: Any) -> Detection:
        """Run ``program`` once (the paper runs each reproduced blocking bug
        once, since the blocking triggers deterministically) and report."""
        result = run(program, seed=seed, **run_kwargs)
        detected = self.classify(result)
        reports = list(result.deadlock.blocked) if result.deadlock else []
        return Detection(
            detector=self.name,
            detected=detected,
            reports=reports,
            runs=1,
            detecting_runs=1 if detected else 0,
        )


class GoroutineLeakDetector:
    """The extension the paper's Implication 4 calls for.

    Flags *any* goroutine blocked forever — partial deadlocks and leaks
    included — by inspecting the post-drain blocked set.  The ablation
    benchmark contrasts its recall with the built-in detector's on the same
    blocking-kernel corpus.
    """

    name = "goroutine-leak-detector"

    def classify(self, result: RunResult) -> bool:
        return is_stuck(result)

    def detect(self, program: Callable, seed: int = 0, **run_kwargs: Any) -> Detection:
        result = run(program, seed=seed, **run_kwargs)
        detected = self.classify(result)
        reports = result.blocked_forever
        return Detection(
            detector=self.name,
            detected=detected,
            reports=list(reports),
            runs=1,
            detecting_runs=1 if detected else 0,
        )
