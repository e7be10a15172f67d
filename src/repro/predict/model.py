"""The offline trace model: one recorded run as a synchronization record.

`repro.predict` never re-executes programs.  Its input is the sync-event
stream exported by :func:`repro.observe.sync_events` — either taken
directly from a live :class:`~repro.runtime.runtime.RunResult` or parsed
back from the stable JSON written by
:func:`repro.observe.sync_events_json`.  Both paths produce the same
:class:`SyncTrace`, and the round-trip test pins that the happens-before
closure built from either is clock-for-clock identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from ..observe.export import SYNC_EVENT_KINDS
from ..runtime.trace import EventKind, TraceEvent


class BlockedGoroutine:
    """A goroutine still parked when the recorded run ended."""

    __slots__ = ("gid", "reason", "obj", "step", "site")

    def __init__(self, gid: int, reason: str, obj: Optional[int],
                 step: int, site: Optional[str]):
        self.gid = gid
        self.reason = reason
        self.obj = obj
        self.step = step
        self.site = site

    def to_dict(self) -> Dict[str, Any]:
        return {"gid": self.gid, "reason": self.reason, "obj": self.obj,
                "step": self.step, "site": self.site}

    def __repr__(self) -> str:
        return f"<blocked g{self.gid} {self.reason} @{self.step}>"


class SyncTrace:
    """A single recorded run, reduced to its synchronization record."""

    def __init__(self, events: List[TraceEvent], seed: Optional[int] = None,
                 status: str = "ok", steps: int = 0,
                 goroutine_names: Optional[Dict[int, str]] = None):
        self.events = events
        self.seed = seed
        self.status = status
        self.steps = steps
        self.goroutine_names = goroutine_names or {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_result(cls, result: Any) -> "SyncTrace":
        """Build from a live run (``keep_trace=True``)."""
        events = [
            TraceEvent(step, time, gid, kind, obj,
                       dict(info) if info else None)
            for step, time, gid, kind, obj, info in result.trace.records()
            if kind in SYNC_EVENT_KINDS
        ]
        return cls(events, seed=result.seed, status=result.status,
                   steps=result.steps,
                   goroutine_names={g.gid: g.name
                                    for g in result.goroutines})

    @classmethod
    def from_json(cls, doc: Union[str, Dict[str, Any]]) -> "SyncTrace":
        """Parse the :func:`repro.observe.sync_events_json` document."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        events = [
            TraceEvent(int(e["step"]), float(e["time"]), int(e["gid"]),
                       str(e["kind"]), e.get("obj"),
                       _restore_info(e.get("info")))
            for e in doc["events"]
        ]
        return cls(events, seed=doc.get("seed"),
                   status=str(doc.get("status", "ok")),
                   steps=int(doc.get("steps", 0)),
                   goroutine_names={int(gid): name for gid, name in
                                    doc.get("goroutines", {}).items()})

    @classmethod
    def record(cls, program: Any, seed: int = 0, **run_kwargs: Any
               ) -> "SyncTrace":
        """Convenience: run ``program`` once and capture its record."""
        from ..runtime.runtime import run

        result = run(program, seed=seed, **run_kwargs)
        return cls.from_result(result)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def goroutine_name(self, gid: int) -> str:
        return self.goroutine_names.get(gid, f"g{gid}")

    def blocked_at_end(self) -> List[BlockedGoroutine]:
        """Goroutines stuck when the run ended (the leak/deadlock set).

        A goroutine is stuck when its *own* last event is a GO_BLOCK it
        never ran past: a goroutine that made progress after blocking
        emits later events, one that ended emits GO_END/GO_PANIC, and
        one killed at teardown emits nothing further.  GO_UNBLOCK is
        deliberately not trusted — teardown and deadlock delivery emit
        wakeups for goroutines that never actually run again.  Sleepers
        (``time.sleep``) are excluded: a goroutine parked on the clock
        would progress, it is not leaked.
        """
        last: Dict[int, TraceEvent] = {}
        ended = set()
        for e in self.events:
            if e.gid > 0:
                last[e.gid] = e
            if e.kind in (EventKind.GO_END, EventKind.GO_PANIC):
                ended.add(e.gid)
        out = []
        for gid in sorted(last):
            e = last[gid]
            if gid in ended or e.kind != EventKind.GO_BLOCK:
                continue
            reason = str(e.info.get("reason", "?"))
            if reason.startswith("time.sleep"):
                continue
            out.append(BlockedGoroutine(
                gid=gid,
                reason=reason,
                obj=e.obj,
                step=e.step,
                site=e.info.get("site"),
            ))
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"<SyncTrace seed={self.seed} status={self.status} "
                f"events={len(self.events)}>")


def _restore_info(info: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    if not info:
        return None
    # JSON round-trips tuples as lists; restore the tuple-valued keys.
    for key in ("objs", "chans"):
        value = info.get(key)
        if isinstance(value, list):
            info = dict(info)
            info[key] = tuple(value)
    return info
