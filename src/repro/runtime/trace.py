"""Structured execution traces.

Every scheduling-relevant action emits one trace event.  The trace is the
single integration point between the runtime and the detectors
(:mod:`repro.detect`): detectors are pure consumers of events and never reach
into scheduler internals.

The kept log is a list of plain records, ``(step, time, gid, kind, obj,
info)`` tuples.  :class:`TraceEvent` objects are built only for the
consumers that read them: once per emitted event that some listener wants
(all of that event's listeners share the one object), and lazily, once, for
post-hoc readers of :attr:`Trace.events`.  ``len()`` and ``kinds()`` read the
records and build nothing.

A listener may subscribe to a subset of event kinds.  The trace routes each
event only to the listeners that asked for its kind (plus every listener
that asked for all kinds), so a detector that reads a handful of kinds does
not pay a call, or an event object, for each of the sleep, block and timer
events that dominate long runs.
"""

from __future__ import annotations

from itertools import islice
from typing import (Callable, Collection, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

Listener = Callable[["TraceEvent"], None]
#: One kept event: ``(step, time, gid, kind, obj, info)``.
Record = Tuple[int, float, int, str, Optional[int], Dict[str, object]]


class EventKind:
    """Names of trace event kinds (plain strings, grouped for reference)."""

    # Goroutine lifecycle
    GO_CREATE = "go.create"          # info: child gid, anonymous flag
    GO_START = "go.start"
    GO_END = "go.end"
    GO_PANIC = "go.panic"
    GO_BLOCK = "go.block"            # info: reason
    GO_UNBLOCK = "go.unblock"

    # Channels
    CHAN_MAKE = "chan.make"
    CHAN_SEND = "chan.send"          # completed send
    CHAN_RECV = "chan.recv"          # completed receive; info: closed flag
    CHAN_CLOSE = "chan.close"
    SELECT_BEGIN = "select.begin"
    SELECT_COMMIT = "select.commit"  # info: chosen case index

    # Shared-memory synchronization
    MU_REQUEST = "mutex.request"     # lock() entered (may block forever)
    MU_LOCK = "mutex.lock"           # lock() acquired
    MU_UNLOCK = "mutex.unlock"
    RW_RLOCK = "rwmutex.rlock"
    RW_RUNLOCK = "rwmutex.runlock"
    RW_REQUEST = "rwmutex.request"
    RW_LOCK = "rwmutex.lock"
    RW_UNLOCK = "rwmutex.unlock"
    WG_ADD = "waitgroup.add"
    WG_DONE = "waitgroup.done"
    WG_WAIT = "waitgroup.wait"
    ONCE_DO = "once.do"              # info: ran flag (True for the executor)
    COND_WAIT = "cond.wait"
    COND_SIGNAL = "cond.signal"
    COND_BROADCAST = "cond.broadcast"
    ATOMIC_OP = "atomic.op"

    # Modelled (racy) memory accesses
    MEM_READ = "mem.read"
    MEM_WRITE = "mem.write"

    # Time and external waits
    SLEEP = "time.sleep"
    TIMER_FIRE = "timer.fire"
    EXTERNAL_WAIT = "external.wait"

    # Fault injection (repro.inject)
    INJECT = "inject.fault"          # info: action, plan, victim details

    # Simulated network (repro.net)
    NET_SEND = "net.send"            # info: link "src->dst", msg seq, latency
    NET_RECV = "net.recv"            # info: link, msg seq, latency
    NET_DROP = "net.drop"            # info: link, msg seq, reason
    NET_DIAL = "net.dial"            # info: src node, addr, outcome
    NET_CLOSE = "net.close"          # info: conn endpoints, half flag
    NET_PARTITION = "net.partition"  # info: node groups
    NET_HEAL = "net.heal"
    NET_NODE_CRASH = "net.node.crash"      # info: node, lost_writes
    NET_NODE_RESTART = "net.node.restart"  # info: node, incarnation


#: Shared empty-info mapping: most events carry no details, and allocating a
#: fresh dict per event was measurable in sweeps.  Treat as immutable —
#: consumers only ever read ``event.info``.
_NO_INFO: Dict[str, object] = {}


class TraceEvent:
    """One scheduling-relevant action performed by a goroutine.

    Attributes:
        step: global monotonically increasing scheduler step counter.
        time: virtual-clock timestamp (seconds).
        gid: id of the goroutine performing the action (0 = scheduler).
        kind: one of the :class:`EventKind` names.
        obj: stable id of the primitive object involved, if any.
        info: kind-specific details (small, JSON-like values only).
    """

    __slots__ = ("step", "time", "gid", "kind", "obj", "info")

    def __init__(
        self,
        step: int,
        time: float,
        gid: int,
        kind: str,
        obj: Optional[int] = None,
        info: Optional[Dict[str, object]] = None,
    ):
        self.step = step
        self.time = time
        self.gid = gid
        self.kind = kind
        self.obj = obj
        self.info = _NO_INFO if not info else info

    def __eq__(self, other: object) -> bool:
        # A listener's event and a reader's event are separate objects
        # built from the same record, so events compare by value.
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.step == other.step and self.time == other.time
                and self.gid == other.gid and self.kind == other.kind
                and self.obj == other.obj and self.info == other.info)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        extra = f" obj={self.obj}" if self.obj is not None else ""
        info = f" {self.info}" if self.info else ""
        return f"<{self.step}@{self.time:g} g{self.gid} {self.kind}{extra}{info}>"


class Trace:
    """An append-only event log with optional live listeners.

    The log keeps plain records; :class:`TraceEvent` objects exist only
    where something reads them (see the module docstring).  Listeners
    (detectors) are invoked synchronously as events are emitted so they
    observe the exact interleaving order.  Within one event, listeners run
    in subscription order.
    """

    # Slotted: ``active`` is read at every event site, so a slot read
    # beats a dict lookup.
    __slots__ = ("_records", "_events", "_routes", "_every", "_keep_events",
                 "active")

    def __init__(self, keep_events: bool = True):
        self._records: List[Record] = []
        #: Events built from ``_records`` so far, for post-hoc readers.
        self._events: List[TraceEvent] = []
        #: Event kind -> the listeners that want it, for every kind some
        #: listener named.
        self._routes: Dict[str, Tuple[Listener, ...]] = {}
        #: The listeners of every other kind: those subscribed to all.
        self._every: Tuple[Listener, ...] = ()
        self._keep_events = keep_events
        #: True when emitting an event has any consumer (the kept log or a
        #: listener).  The scheduler checks this before emitting, so an
        #: unobserved ``keep_trace=False`` run skips the whole trace layer
        #: at the cost of one attribute read per event site.
        self.active = keep_events

    def subscribe(self, listener: Listener,
                  kinds: Optional[Collection[str]] = None) -> None:
        """Register a callback for subsequent events.

        With ``kinds`` the callback sees only events of those kinds, in
        emission order; without it, every event.  Subscribing extends the
        routing table in place: the listener joins the route of each kind
        it names (a new route starts from the all-kinds listeners), or,
        without ``kinds``, the all-kinds listeners and every existing
        route.  Emitting an event then costs one dict lookup however many
        listeners there are.
        """
        routes = self._routes
        if kinds is None:
            self._every += (listener,)
            for kind in routes:
                routes[kind] += (listener,)
        else:
            for kind in set(kinds):
                routes[kind] = routes.get(kind, self._every) + (listener,)
        self.active = True

    def keep_records(self) -> None:
        """Keep the event log from here on, even in a run whose result
        will not carry the trace (``keep_trace=False``): for consumers
        that read :meth:`records` when the run finishes."""
        self._keep_events = True
        self.active = True

    def unsubscribe_all(self) -> None:
        """Drop every listener (end-of-run teardown); kept events stay.

        A listener is usually a bound method of a detector that may hold
        the runtime, which holds this trace: a reference cycle.
        """
        self._routes = {}
        self._every = ()
        self.active = self._keep_events

    def emit(self, step: int, time: float, gid: int, kind: str,
             obj: Optional[int] = None,
             info: Optional[Dict[str, object]] = None) -> None:
        """Append one event record and route it to its listeners.

        The record goes to the kept log as a plain tuple.  A
        :class:`TraceEvent` is built only when the event's kind has a
        listener, and all of them receive that one object.
        """
        if not info:
            info = _NO_INFO
        if self._keep_events:
            self._records.append((step, time, gid, kind, obj, info))
        listeners = self._routes.get(kind, self._every)
        if listeners:
            event = TraceEvent(step, time, gid, kind, obj, info)
            for listener in listeners:
                listener(event)

    @property
    def events(self) -> List[TraceEvent]:
        """The kept events as objects, built on first read and cached.

        Only the records emitted since the previous read are built, so
        repeated reads return the same list holding the same objects.
        """
        events = self._events
        if len(events) < len(self._records):
            events.extend(TraceEvent(*record) for record
                          in islice(self._records, len(events), None))
        return events

    def records(self) -> List[Record]:
        """The kept log itself, one record per event; treat it as read-only.

        For projections that read a few fields of every event (schedule
        digests and fingerprints): they need no event objects.
        """
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        """Return all recorded events whose kind is in ``kinds``."""
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def by_goroutine(self, gid: int) -> List[TraceEvent]:
        return [e for e in self.events if e.gid == gid]

    def kinds(self) -> Iterable[str]:
        return (record[3] for record in self._records)
