"""Fault plans: the serializable, composable description of *what* to break.

A :class:`FaultPlan` is a named list of :class:`Fault` specs.  Each fault
names an action (goroutine kill/delay, spurious wakeup, panic injection,
context-cancellation storm, virtual-clock jump, channel close/fill), a
trigger (``at_step`` / ``after_time`` / ``every``), an optional probability
gate, and an optional ``target`` glob over goroutine or channel names.

Plans carry **no randomness of their own**: all chance (probability gates,
victim choice) is drawn from the injector's RNG, which is seeded from
``(run seed, plan fingerprint)``.  The same ``(seed, plan)`` pair therefore
always injects the same faults at the same points and reproduces the same
trace — every chaos failure is a deterministic reproducer.

Plans serialize to plain JSON (``to_json`` / ``from_json``) so a failing
``(seed, plan)`` pair can be attached to a bug report and replayed anywhere.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The fault actions the injector implements.
ACTIONS = (
    "kill",         # unwind a goroutine at its next resume
    "delay",        # park a runnable goroutine for `value` virtual seconds
    "wakeup",       # spuriously ready a blocked goroutine
    "panic",        # raise GoPanic(`value`) inside a goroutine
    "cancel_ctx",   # cancel up to `count` live cancellable contexts
    "clock_jump",   # advance the virtual clock by `value` seconds
    "chan_close",   # close a matching open channel
    "chan_fill",    # stuff a matching buffered channel to capacity
    # Network faults (repro.net fabrics; no-ops for programs without one).
    "net_partition",  # split nodes matching `target` from the rest (or
                      # `value` = explicit list of name groups)
    "net_heal",       # remove the active partition
    "net_drop",       # set link loss probability `value` on links matching
                      # `target` ("src->dst" glob, default all)
    "net_dup",        # set link duplication probability `value`
    "net_reorder",    # set link reorder probability `value`
    "net_delay",      # add `value` seconds of extra delay on matching links
    # Crash-recovery faults (repro.net nodes with a lifecycle).  Targets
    # glob node names; "n2/*" (the kill-style machine glob) also matches
    # node n2, so kill plans port to crash plans unchanged.
    "crash",          # crash-stop matching nodes: kill their goroutines,
                      # reset their conns, discard un-fsynced disk writes
    "restart",        # restart matching crashed/stopped nodes
    "crash_restart",  # crash now, restart after `value` seconds
)


@dataclass(frozen=True)
class Fault:
    """One fault spec.  At least one trigger must be set.

    Attributes:
        action: one of :data:`ACTIONS`.
        target: ``fnmatch`` glob over goroutine names (kill/delay/wakeup/
            panic), channel names (chan_close/chan_fill) or node names
            (crash/restart/crash_restart).  ``None`` means "any victim
            except the main goroutine" (goroutine faults) or "one random
            victim" (node faults).
        at_step: fire once when the scheduler reaches this step.
        after_time: fire once when the virtual clock reaches this time.
        every: fire once per ``every`` scheduling steps (a recurring storm).
        probability: chance of actually firing when due (injector RNG).
        times: total firing budget; ``None`` = unlimited (recurring faults).
        value: action parameter — delay/jump seconds, fill payload, panic
            message.
        count: victims per firing (cancellation-storm width, channel fills).
    """

    action: str
    target: Optional[str] = None
    at_step: Optional[int] = None
    after_time: Optional[float] = None
    every: Optional[int] = None
    probability: float = 1.0
    times: Optional[int] = 1
    value: Any = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at_step is None and self.after_time is None and self.every is None:
            raise ValueError(
                f"fault {self.action!r} needs a trigger: at_step, after_time "
                "or every")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability out of range: {self.probability}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fault":
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of faults.

    Compose plans with ``+`` (faults concatenate, names join with ``+``);
    serialize with ``to_json``/``from_json``.  :meth:`fingerprint` is a
    stable content hash folded into the injector RNG seed, so editing a plan
    re-randomizes its chance draws while replaying an unedited plan is exact.
    """

    name: str
    faults: Tuple[Fault, ...] = field(default_factory=tuple)
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(
            name=f"{self.name}+{other.name}",
            faults=self.faults + other.faults,
            note="; ".join(n for n in (self.note, other.note) if n),
        )

    def with_name(self, name: str) -> "FaultPlan":
        return replace(self, name=name)

    @staticmethod
    def combine(plans: Sequence["FaultPlan"], name: Optional[str] = None
                ) -> "FaultPlan":
        combined = FaultPlan(name="empty") if not plans else plans[0]
        for plan in plans[1:]:
            combined = combined + plan
        return combined if name is None else combined.with_name(name)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "note": self.note,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls(
            name=data["name"],
            note=data.get("note", ""),
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", [])),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> int:
        """Stable 64-bit content hash (independent of Python hash seeds)."""
        digest = hashlib.sha256(self.to_json().encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"<FaultPlan {self.name!r} faults={len(self.faults)}>"
