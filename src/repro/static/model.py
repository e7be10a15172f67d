"""The shared static finding/report schema.

Every checker — lock-order graphs, channel shapes, lockset races, the
loop-capture scanner — emits :class:`StaticFinding` records; one scan of
one target produces a :class:`StaticReport`.  The schema is the static
tier's analogue of :class:`repro.predict.report.PredictReport`, and the
triage bridge (:mod:`repro.static.triage`) folds it into the same
:class:`~repro.detect.triage.TriageVerdict` the predictive screen emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Checker names, in report order.
CHECKERS = ("lockgraph", "chanshape", "sharedrace", "capture")


@dataclass(frozen=True)
class StaticFinding:
    """One defect candidate from one checker."""

    checker: str               # lockgraph | chanshape | sharedrace | capture
    rule: str                  # e.g. "abba-cycle", "recv-no-sender"
    message: str
    obj: str = ""              # object involved (mutex/chan/var name)
    function: str = ""         # thread or function context
    path: str = ""             # file path (module mode) or kernel id
    line: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "checker": self.checker,
            "rule": self.rule,
            "message": self.message,
            "obj": self.obj,
            "function": self.function,
            "path": self.path,
            "line": self.line,
        }

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.path else f"L{self.line}"
        ctx = f" in {self.function}" if self.function else ""
        return f"[{self.checker}/{self.rule}] {self.message} ({where}{ctx})"


@dataclass
class StaticReport:
    """Everything one static scan of one target produced."""

    target: str
    findings: List[StaticFinding] = field(default_factory=list)
    #: per-stage wall time (seconds): "interp" plus one key per checker.
    timings: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    mode: str = "program"      # program (kernels) | module (apps/paths)

    @property
    def found(self) -> bool:
        return bool(self.findings)

    def by_checker(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.checker] = counts.get(f.checker, 0) + 1
        return counts

    def rules(self) -> List[str]:
        return sorted({f.rule for f in self.findings})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "mode": self.mode,
            "found": self.found,
            "checkers": self.by_checker(),
            "findings": [f.to_dict() for f in self.findings],
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "wall_s": round(self.wall_s, 6),
        }

    def render(self) -> str:
        head = (f"{self.target} ({self.mode} mode, "
                f"{self.wall_s * 1000:.1f}ms)")
        if not self.findings:
            return head + "\n  clean: no checker fired"
        lines = [head]
        for f in self.findings:
            lines.append(f"  {f}")
        return "\n".join(lines)


def dedupe(findings: List[StaticFinding]) -> List[StaticFinding]:
    """Drop findings identical up to (checker, rule, obj, line)."""
    seen = set()
    out = []
    for f in findings:
        key = (f.checker, f.rule, f.obj, f.line)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out
