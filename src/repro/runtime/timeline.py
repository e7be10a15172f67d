"""ASCII timelines from execution traces.

Turns a finished run's trace into a per-goroutine lane diagram — the
debugging view you want when a kernel leaks and you need to see who
blocked on what, in which order::

    g1 main              |go+2....send:results............recv:results|
    g2 worker            |....................send:results~~~~~~~~~~~~|

Legend: one column per scheduling step (compressed), ``~`` = blocked,
``.`` = idle/not scheduled, op glyphs at the step they completed.
"""

from __future__ import annotations

from typing import Dict, List

from .runtime import RunResult
from .trace import EventKind

#: Short glyph labels per event kind (trailing ":<name>" added for channels).
_LABELS = {
    EventKind.GO_CREATE: "go",
    EventKind.GO_END: "end",
    EventKind.GO_PANIC: "PANIC",
    EventKind.CHAN_SEND: "send",
    EventKind.CHAN_RECV: "recv",
    EventKind.CHAN_CLOSE: "close",
    EventKind.SELECT_COMMIT: "sel",
    EventKind.MU_LOCK: "lk",
    EventKind.MU_UNLOCK: "ul",
    EventKind.RW_RLOCK: "rlk",
    EventKind.RW_RUNLOCK: "rul",
    EventKind.RW_LOCK: "wlk",
    EventKind.RW_UNLOCK: "wul",
    EventKind.WG_ADD: "add",
    EventKind.WG_DONE: "done",
    EventKind.WG_WAIT: "wait",
    EventKind.ONCE_DO: "once",
    EventKind.MEM_READ: "r",
    EventKind.MEM_WRITE: "w",
    EventKind.SLEEP: "zz",
    EventKind.GO_BLOCK: "~",
}

#: Kinds too noisy for the timeline.
_SKIP = {EventKind.GO_UNBLOCK, EventKind.CHAN_MAKE, EventKind.SELECT_BEGIN,
         EventKind.MU_REQUEST, EventKind.RW_REQUEST, EventKind.ATOMIC_OP,
         EventKind.TIMER_FIRE}


def timeline(result: RunResult, max_width: int = 100,
             include_memory: bool = False) -> str:
    """Render the run's trace as per-goroutine lanes."""
    if result.trace is None:
        return "(trace not recorded: run with keep_trace=True)"

    lanes: Dict[int, List[str]] = {}
    order: List[int] = []

    def lane(gid: int) -> List[str]:
        if gid not in lanes:
            lanes[gid] = []
            order.append(gid)
        return lanes[gid]

    for event in result.trace:
        if event.kind in _SKIP or event.gid == 0:
            continue
        if not include_memory and event.kind in (EventKind.MEM_READ,
                                                 EventKind.MEM_WRITE):
            continue
        label = _LABELS.get(event.kind)
        if label is None:
            continue
        if event.kind == EventKind.GO_BLOCK:
            label = "~" + str(event.info.get("reason", "")).split(":")[0]
        elif event.kind in (EventKind.CHAN_SEND, EventKind.CHAN_RECV,
                            EventKind.CHAN_CLOSE):
            label = f"{label}#{event.obj}"
        lane(event.gid).append(label)

    names = {g.gid: g.name for g in result.goroutines}
    states = {g.gid: g.state for g in result.goroutines}

    lines = [f"run: status={result.status} steps={result.steps} "
             f"virtual-time={result.end_time:g}s"]
    for gid in sorted(order):
        ops = lanes[gid]
        body = " ".join(ops)
        if len(body) > max_width:
            body = body[: max_width - 3] + "..."
        name = names.get(gid, "?")
        state = states.get(gid, "?")
        lines.append(f"  g{gid:<3} {name:<24} [{state:<8}] {body}")
    return "\n".join(lines)


def blocked_summary(result: RunResult) -> str:
    """A one-liner per stuck goroutine (for leak triage)."""
    lines = []
    for g in result.leaked:
        lines.append(f"  g{g.gid} {g.name}: stuck on {g.block_reason} "
                     f"(created at {g.creation_site})")
    return "\n".join(lines) if lines else "  (nothing stuck)"
