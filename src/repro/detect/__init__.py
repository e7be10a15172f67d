"""Bug detectors: the two the paper evaluates, plus the extensions it calls for.

* :class:`RaceDetector` — Go's ``-race`` happens-before detector with the
  4-shadow-word limit (Table 12).
* :class:`BuiltinDeadlockDetector` — the runtime's all-asleep detector
  (Table 8).
* :class:`GoroutineLeakDetector` — partial-deadlock/leak detection
  (Implication 4 extension).
* :class:`ChannelRuleChecker` — runtime rule-violation diagnostics
  (Section 7 extension).
* :class:`LockOrderDetector` — the lockdep-style lock-order graph
  (Implication 4 extension); its offline twin with a feasibility gate is
  :func:`repro.predict.predict_lock_cycles`.
* :func:`await_recovery` — cluster-level convergence/liveness verdicts
  for crash-recovery chaos (recovered / diverged / stuck).
"""

from .convergence import (
    ConvergenceReport,
    await_recovery,
    classify,
    recovery_verdict,
)
from .deadlock import BuiltinDeadlockDetector, GoroutineLeakDetector
from .leak import leak_reports
from .lockorder import LockOrderDetector, LockOrderViolation
from .race import RaceDetector
from .report import (
    Access,
    Detection,
    LeakReport,
    RaceReport,
    RuleViolation,
)
from .rules import ChannelRuleChecker
from .systematic import (
    Exploration,
    ScriptedChoices,
    explore_systematic,
    replay_schedule,
    verify_no_manifestation,
)
from .vectorclock import VectorClock

__all__ = [
    "Access",
    "BuiltinDeadlockDetector",
    "ChannelRuleChecker",
    "ConvergenceReport",
    "Detection",
    "Exploration",
    "GoroutineLeakDetector",
    "LeakReport",
    "LockOrderDetector",
    "LockOrderViolation",
    "RaceDetector",
    "RaceReport",
    "RuleViolation",
    "ScriptedChoices",
    "VectorClock",
    "explore_systematic",
    "leak_reports",
    "replay_schedule",
    "await_recovery",
    "classify",
    "recovery_verdict",
    "verify_no_manifestation",
]
