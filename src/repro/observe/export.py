"""Trace and metrics exporters.

:func:`chrome_trace` converts a finished run's trace into the Chrome
``trace_event`` JSON format (the JSON-array flavour with a ``traceEvents``
top-level key), loadable in ``about:tracing`` and Perfetto:

* one *thread* per goroutine (named via metadata events),
* a duration (``B``/``E``) slice for every block span,
* instant events for channel/select/timer/inject actions,
* flow arrows (``s``/``f``) linking every channel send to its receive,
* optional counter events for the runnable-queue depth (from an Observer).

Timestamps: the virtual clock only advances when timers fire, so a pure
virtual-time axis would collapse thousands of scheduling steps into one
instant.  Exported ``ts`` is ``virtual_seconds * 1e6 + step`` — microsecond
virtual time with the step counter breaking ties — which is monotone and
keeps both sleeps and contention visible.  The raw pair is preserved in
each event's ``args``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..runtime.trace import EventKind, TraceEvent

#: Kinds exported as instant events (name shown at a single tick).
_INSTANT = {
    EventKind.CHAN_SEND: "send",
    EventKind.CHAN_RECV: "recv",
    EventKind.CHAN_CLOSE: "close",
    EventKind.CHAN_MAKE: "make",
    EventKind.SELECT_COMMIT: "select",
    EventKind.TIMER_FIRE: "timer",
    EventKind.INJECT: "inject",
    EventKind.GO_CREATE: "go",
    EventKind.GO_END: "go.end",
    EventKind.WG_ADD: "wg.add",
    EventKind.WG_DONE: "wg.done",
    EventKind.ONCE_DO: "once",
    EventKind.COND_SIGNAL: "cond.signal",
    EventKind.COND_BROADCAST: "cond.broadcast",
    EventKind.NET_DROP: "net.drop",
    EventKind.NET_DIAL: "net.dial",
    EventKind.NET_CLOSE: "net.close",
    EventKind.NET_PARTITION: "net.partition",
    EventKind.NET_HEAL: "net.heal",
}

_PID = 1


def _ts(e: TraceEvent) -> float:
    return e.time * 1e6 + e.step


def _base(e: TraceEvent, ph: str, name: str, cat: str) -> Dict[str, Any]:
    return {"name": name, "cat": cat, "ph": ph, "pid": _PID, "tid": e.gid,
            "ts": _ts(e), "args": {"step": e.step, "virtual_time": e.time}}


def chrome_trace(result: Any, observation: Any = None,
                 include_memory: bool = False) -> Dict[str, Any]:
    """Build the ``trace_event`` document for one finished run.

    Args:
        result: a :class:`repro.runtime.runtime.RunResult` with a trace
            (``keep_trace=True``, the default).
        observation: optional :class:`repro.observe.Observer` from the same
            run; contributes runnable-depth counter events.
        include_memory: also export MEM_READ/MEM_WRITE instants (noisy).
    """
    if result.trace is None:
        raise ValueError("run was executed with keep_trace=False; "
                         "re-run with keep_trace=True to export a trace")

    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": f"repro simulator (seed={result.seed}, "
                         f"status={result.status})"},
    }]
    for g in result.goroutines:
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": g.gid,
            "args": {"name": f"g{g.gid} {g.name}"},
        })
        events.append({
            "name": "thread_sort_index", "ph": "M", "pid": _PID,
            "tid": g.gid, "args": {"sort_index": g.gid},
        })

    open_blocks: Dict[int, TraceEvent] = {}
    end_ts = result.end_time * 1e6 + result.steps

    # Pre-pass for goroutine fork/join flow arrows.  Flows must pair (one
    # ``s`` start with one ``f`` finish), so eligibility is decided up
    # front: a *fork* pair needs the GO_CREATE plus the child's first own
    # event to anchor the finish to (the moment the child actually runs);
    # a *join* pair needs the child's GO_END plus a later event on the
    # creator's timeline (the moment the parent can first observe the
    # exit).  Children killed at teardown before running get no fork
    # edge; runs that end before the parent resumes get no join edge.
    creator: Dict[int, int] = {}            # child gid -> creating gid
    steps_by_gid: Dict[int, List[TraceEvent]] = {}
    for e in result.trace:
        steps_by_gid.setdefault(e.gid, []).append(e)
        if e.kind == EventKind.GO_CREATE:
            creator.setdefault(int(e.obj), e.gid)  # type: ignore[arg-type]
    fork_anchor: Dict[int, TraceEvent] = {}  # child gid -> child's 1st event
    join_anchor: Dict[int, TraceEvent] = {}  # child gid -> creator event
    for e in result.trace:
        if e.kind == EventKind.GO_CREATE:
            child = int(e.obj)  # type: ignore[arg-type]
            anchor = next((ce for ce in steps_by_gid.get(child, ())
                           if ce.step > e.step), None)
            if anchor is not None:
                fork_anchor[child] = anchor
        elif e.kind == EventKind.GO_END:
            parent = creator.get(e.gid)
            if parent is None:
                continue
            anchor = next((pe for pe in steps_by_gid.get(parent, ())
                           if pe.step > e.step), None)
            if anchor is not None:
                join_anchor[e.gid] = anchor

    for e in result.trace:
        kind = e.kind
        if kind == EventKind.GO_BLOCK:
            reason = str(e.info.get("reason", "?"))
            begin = _base(e, "B", f"blocked: {reason}", "block")
            site = e.info.get("site")
            if site:
                begin["args"]["site"] = site
            events.append(begin)
            open_blocks[e.gid] = e
        elif kind == EventKind.GO_UNBLOCK:
            gid = int(e.obj)  # type: ignore[arg-type]
            blocked = open_blocks.pop(gid, None)
            if blocked is not None:
                end = _base(e, "E", "", "block")
                end["tid"] = gid
                events.append(end)
        elif kind in (EventKind.CHAN_SEND, EventKind.CHAN_RECV):
            label = _INSTANT[kind]
            inst = _base(e, "i", f"{label} chan#{e.obj}", "chan")
            inst["s"] = "t"
            inst["args"].update(
                {k: v for k, v in e.info.items() if k != "stack"})
            events.append(inst)
            # Flow arrows pair each message's send with its receive.
            seq = e.info.get("seq")
            if seq is not None:
                flow = _base(e, "s" if kind == EventKind.CHAN_SEND else "f",
                             f"chan#{e.obj} msg", "chan.flow")
                flow["id"] = f"chan{e.obj}-{seq}"
                if kind == EventKind.CHAN_RECV:
                    flow["bp"] = "e"
                events.append(flow)
        elif kind in (EventKind.NET_SEND, EventKind.NET_RECV):
            label = "net.send" if kind == EventKind.NET_SEND else "net.recv"
            link = e.info.get("link", "?")
            inst = _base(e, "i", f"{label} {link}", "net")
            inst["s"] = "t"
            inst["args"].update(
                {k: v for k, v in e.info.items() if k != "stack"})
            events.append(inst)
            # Flow arrows pair each network message's send with its receive
            # across goroutines (and nodes), like the channel arrows.
            seq = e.info.get("seq")
            if seq is not None:
                flow = _base(e, "s" if kind == EventKind.NET_SEND else "f",
                             f"net {link} msg", "net.flow")
                flow["id"] = f"net-{link}-{seq}"
                if kind == EventKind.NET_RECV:
                    flow["bp"] = "e"
                events.append(flow)
        elif kind in (EventKind.MEM_READ, EventKind.MEM_WRITE):
            if include_memory:
                inst = _base(e, "i", kind, "mem")
                inst["s"] = "t"
                events.append(inst)
        elif kind in (EventKind.GO_CREATE, EventKind.GO_END):
            inst = _base(e, "i", f"{_INSTANT[kind]}"
                         + (f" #{e.obj}" if e.obj is not None else ""),
                         "go")
            inst["s"] = "t"
            inst["args"].update(
                {k: v for k, v in e.info.items() if k != "stack"})
            events.append(inst)
            if kind == EventKind.GO_CREATE:
                child = int(e.obj)  # type: ignore[arg-type]
                anchor = fork_anchor.get(child)
                if anchor is not None:
                    flow = _base(e, "s", f"fork g{child}", "go.flow")
                    flow["id"] = f"go-{child}"
                    events.append(flow)
                    finish = _base(anchor, "f", f"fork g{child}", "go.flow")
                    finish["id"] = f"go-{child}"
                    finish["bp"] = "e"
                    events.append(finish)
            elif kind == EventKind.GO_END:
                # The parent-observes-child-exit join edge.
                anchor = join_anchor.get(e.gid)
                if anchor is not None:
                    flow = _base(e, "s", f"join g{e.gid}", "go.flow")
                    flow["id"] = f"join-{e.gid}"
                    events.append(flow)
                    finish = _base(anchor, "f", f"join g{e.gid}", "go.flow")
                    finish["id"] = f"join-{e.gid}"
                    finish["bp"] = "e"
                    events.append(finish)
        elif kind in _INSTANT:
            inst = _base(e, "i", f"{_INSTANT[kind]}"
                         + (f" #{e.obj}" if e.obj is not None else ""),
                         kind.split(".", 1)[0])
            inst["s"] = "t"
            inst["args"].update(
                {k: v for k, v in e.info.items() if k != "stack"})
            events.append(inst)

    # Close every span still open when the run ended (leaked goroutines).
    for gid, blocked in sorted(open_blocks.items()):
        events.append({"name": "", "cat": "block", "ph": "E", "pid": _PID,
                       "tid": gid, "ts": end_ts,
                       "args": {"still_blocked": True}})

    if observation is not None:
        series = observation.metrics.timeseries("sched.runnable_depth.series")
        for step, depth in series.samples:
            events.append({"name": "runnable goroutines", "ph": "C",
                           "pid": _PID, "tid": 0, "ts": float(step),
                           "args": {"runnable": depth}})

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.observe",
            "seed": result.seed,
            "status": result.status,
            "steps": result.steps,
            "virtual_time": result.end_time,
        },
    }


def chrome_trace_json(result: Any, observation: Any = None,
                      include_memory: bool = False,
                      indent: Optional[int] = None) -> str:
    """The :func:`chrome_trace` document serialized deterministically."""
    return json.dumps(chrome_trace(result, observation, include_memory),
                      sort_keys=True, indent=indent)


def metrics_json(observation: Any, indent: Optional[int] = None) -> str:
    """Stable JSON dump of an Observer's full derived state."""
    return observation.to_json(indent=indent)


# ----------------------------------------------------------------------
# Sync-event export: the first-class synchronization record consumed by
# the offline predictive analyses in :mod:`repro.predict`.
# ----------------------------------------------------------------------

#: Every event kind that carries happens-before or blocking information:
#: goroutine lifecycle (fork/join/block), channel operations, select
#: commits, every lock/waitgroup/once/cond/atomic transition, and the raw
#: memory accesses the race predictor reasons about.
SYNC_EVENT_KINDS = frozenset({
    EventKind.GO_CREATE, EventKind.GO_END, EventKind.GO_PANIC,
    EventKind.GO_BLOCK, EventKind.GO_UNBLOCK,
    EventKind.CHAN_MAKE, EventKind.CHAN_SEND, EventKind.CHAN_RECV,
    EventKind.CHAN_CLOSE, EventKind.SELECT_BEGIN, EventKind.SELECT_COMMIT,
    EventKind.MU_REQUEST, EventKind.MU_LOCK, EventKind.MU_UNLOCK,
    EventKind.RW_REQUEST, EventKind.RW_LOCK, EventKind.RW_UNLOCK,
    EventKind.RW_RLOCK, EventKind.RW_RUNLOCK,
    EventKind.WG_ADD, EventKind.WG_DONE, EventKind.WG_WAIT,
    EventKind.ONCE_DO, EventKind.COND_WAIT, EventKind.COND_SIGNAL,
    EventKind.COND_BROADCAST, EventKind.ATOMIC_OP,
    EventKind.MEM_READ, EventKind.MEM_WRITE,
})

#: ``info`` keys preserved in the export (JSON-safe scalars only).
_SYNC_INFO_KEYS = ("seq", "sync", "partner", "closed", "delta", "ran",
                   "name", "reason", "site", "chosen", "anonymous", "objs",
                   "cases", "default", "chans")


def sync_events(result: Any) -> List[Dict[str, Any]]:
    """The run's synchronization record as a list of plain dicts.

    Each entry mirrors one :class:`~repro.runtime.trace.TraceEvent`
    (``step``/``time``/``gid``/``kind``/``obj`` plus whitelisted ``info``
    fields), restricted to :data:`SYNC_EVENT_KINDS`.  The stream is
    self-contained: :func:`repro.predict.SyncTrace.from_json` rebuilds an
    identical happens-before closure from it (see the round-trip test).
    """
    if result.trace is None:
        raise ValueError("run was executed with keep_trace=False; "
                         "re-run with keep_trace=True to export sync events")
    out: List[Dict[str, Any]] = []
    for e in result.trace:
        if e.kind not in SYNC_EVENT_KINDS:
            continue
        entry: Dict[str, Any] = {"step": e.step, "time": e.time,
                                 "gid": e.gid, "kind": e.kind}
        if e.obj is not None:
            entry["obj"] = e.obj
        if e.info:
            info = {k: list(e.info[k]) if isinstance(e.info[k], tuple)
                    else e.info[k]
                    for k in _SYNC_INFO_KEYS if k in e.info}
            if info:
                entry["info"] = info
        out.append(entry)
    return out


def sync_events_json(result: Any, indent: Optional[int] = None) -> str:
    """Stable JSON document wrapping :func:`sync_events` with run metadata."""
    doc = {
        "schema": 1,
        "source": "repro.observe.sync_events",
        "seed": result.seed,
        "status": result.status,
        "steps": result.steps,
        "virtual_time": result.end_time,
        "goroutines": {str(g.gid): g.name for g in result.goroutines},
        "events": sync_events(result),
    }
    return json.dumps(doc, sort_keys=True, indent=indent)
