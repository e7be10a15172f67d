"""Runtime channel-rule checker.

The paper observes (Section 7) that "the violation of rules Go enforces
with its concurrency primitives is one major reason for concurrency bugs"
and suggests "a novel dynamic technique can try to enforce such rules and
detect violation at runtime."  This observer is that technique for the
simulator: it watches the trace and the run outcome and produces structured
:class:`~repro.detect.report.RuleViolation` diagnostics for

* panics that encode rule violations (double close, send on closed channel,
  negative WaitGroup, unlock of unlocked mutex),
* goroutines blocked forever on nil channels,
* goroutines leaked while parked on channel operations (with the channel's
  identity), and
* deadlocks involving channel operations.
"""

from __future__ import annotations

from typing import List

from ..runtime.errors import GoPanic
from ..runtime.runtime import RunResult
from .report import RuleViolation

_PANIC_RULES = {
    "close of closed channel": "close-of-closed-channel",
    "close of nil channel": "close-of-nil-channel",
    "send on closed channel": "send-on-closed-channel",
    "sync: negative WaitGroup counter": "negative-waitgroup-counter",
    "sync: unlock of unlocked mutex": "unlock-of-unlocked-mutex",
    "sync: RUnlock of unlocked RWMutex": "runlock-of-unlocked-rwmutex",
    "sync: Unlock of unlocked RWMutex": "unlock-of-unlocked-rwmutex",
}


class ChannelRuleChecker:
    """Observer producing rule-violation diagnostics for one run.

    ``finish`` builds the list afresh from the result, so a checker
    reused across runs reports only the run it last finished, and a
    second ``finish`` of one run changes nothing.
    """

    name = "channel-rule-checker"

    def __init__(self) -> None:
        self.violations: List[RuleViolation] = []

    def attach(self, rt) -> None:
        """Nothing to keep: every rule is read off the result."""

    def finish(self, result: RunResult) -> None:
        self.violations = []
        self._check_panic(result)
        self._check_stuck(result)
        setattr(result, "rule_violations", list(self.violations))

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    # ------------------------------------------------------------------

    def _check_panic(self, result: RunResult) -> None:
        if not isinstance(result.panic_value, GoPanic):
            return
        message = str(result.panic_value.value)
        rule = _PANIC_RULES.get(message)
        if rule is None:
            return
        gid = result.panic_goroutine.gid if result.panic_goroutine else None
        self.violations.append(
            RuleViolation(rule=rule, message=message, gid=gid)
        )

    def _check_stuck(self, result: RunResult) -> None:
        # result.leaked covers leaks, deadlocks, hangs and timeouts alike.
        for g in result.leaked:
            reason = g.block_reason or ""
            if reason.endswith(":nil") or reason == "select.nil":
                self.violations.append(
                    RuleViolation(
                        rule="operation-on-nil-channel",
                        message=f"goroutine {g.gid} ({g.name}) blocked forever: {reason}",
                        gid=g.gid,
                    )
                )
            elif reason.startswith("chan.send"):
                self.violations.append(
                    RuleViolation(
                        rule="missing-receiver",
                        message=(f"goroutine {g.gid} ({g.name}) blocked sending on "
                                 f"{reason.split(':', 1)[1]}: nobody receives or closes"),
                        gid=g.gid,
                    )
                )
            elif reason.startswith("chan.recv"):
                self.violations.append(
                    RuleViolation(
                        rule="missing-sender-or-close",
                        message=(f"goroutine {g.gid} ({g.name}) blocked receiving on "
                                 f"{reason.split(':', 1)[1]}: nobody sends or closes"),
                        gid=g.gid,
                    )
                )
