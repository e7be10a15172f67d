"""Shared report types for all detectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class Access:
    """One memory access as seen by the race detector."""

    gid: int
    kind: str          # "read" | "write"
    step: int
    var_name: str

    def __str__(self) -> str:
        return f"{self.kind} of {self.var_name} by goroutine {self.gid} at step {self.step}"


@dataclass(frozen=True)
class RaceReport:
    """A detected data race between two unordered conflicting accesses."""

    var_id: int
    var_name: str
    first: Access
    second: Access

    def __str__(self) -> str:
        return (f"DATA RACE on {self.var_name}: {self.second} "
                f"is concurrent with previous {self.first}")


@dataclass(frozen=True)
class RuleViolation:
    """A violation of Go's channel/primitive usage rules."""

    rule: str            # e.g. "close-of-closed-channel"
    message: str
    gid: Optional[int] = None
    step: Optional[int] = None

    def __str__(self) -> str:
        where = f" (goroutine {self.gid}, step {self.step})" if self.gid else ""
        return f"{self.rule}: {self.message}{where}"


@dataclass(frozen=True)
class LeakReport:
    """A goroutine blocked forever (the paper's goroutine-leak symptom)."""

    gid: int
    name: str
    reason: str
    creation_site: Optional[str]

    def __str__(self) -> str:
        site = f" created at {self.creation_site}" if self.creation_site else ""
        return f"LEAK: goroutine {self.gid} ({self.name}){site} blocked on {self.reason}"


@dataclass
class Detection:
    """Outcome of running one detector against one program."""

    detector: str
    detected: bool
    reports: List[object] = field(default_factory=list)
    runs: int = 1
    detecting_runs: int = 0

    def __str__(self) -> str:
        verdict = "DETECTED" if self.detected else "missed"
        return f"[{self.detector}] {verdict} ({self.detecting_runs}/{self.runs} runs)"
