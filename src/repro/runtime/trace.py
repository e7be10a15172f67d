"""Structured execution traces.

Every scheduling-relevant action emits one trace event.  The trace is the
single integration point between the runtime and the detectors
(:mod:`repro.detect`): detectors are pure consumers of events and never reach
into scheduler internals.

The kept log is a list of plain records, ``(step, time, gid, kind, obj,
info)`` tuples, and appending one is the only way to write it.
:meth:`Trace.emit` appends for every event site; the compiled drive loop
(``_ext/_hotloop.c``) also appends the ``timer.fire`` and ``go.unblock``
records of a sleeper it wakes straight to ``_records``, the same tuples
``Scheduler.emit`` would build, while :attr:`Trace.active` is set.  Every
consumer reads the records when the run finishes: a detector or observer
calls :meth:`Trace.keep_records` in ``attach`` (so a ``keep_trace=False``
run still records) and replays the records emitted since then in
``finish``.  :class:`TraceEvent` objects are built only for readers that
want them: lazily, once, for :attr:`Trace.events`, or one per replayed
record by a detector's handler.  ``len()`` and ``kinds()`` read the
records and build nothing.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import itemgetter
from typing import (Callable, Collection, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

#: One kept event: ``(step, time, gid, kind, obj, info)``.
Record = Tuple[int, float, int, str, Optional[int], Dict[str, object]]


class EventKind:
    """Names of trace event kinds (plain strings, grouped for reference)."""

    # Goroutine lifecycle
    GO_CREATE = "go.create"          # info: child gid, anonymous flag
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
        # Two readers of one record (``Trace.events`` and a detector's
        # replay) build separate objects, so events compare by value.
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
    """An append-only event log, read when the run finishes.

    The log keeps plain records; :class:`TraceEvent` objects exist only
    where something reads them (see the module docstring).
    """

    # Slotted: ``active`` is read at every event site, so a slot read
    # beats a dict lookup.
    __slots__ = ("_records", "_events", "active")

    def __init__(self, keep_events: bool = True):
        self._records: List[Record] = []
        #: Events built from ``_records`` so far, for post-hoc readers.
        self._events: List[TraceEvent] = []
        #: True when events are kept: a ``keep_trace=True`` run, or one
        #: some consumer asked for the records of.  Every event site (and
        #: the compiled drive loop) checks this before emitting, so an
        #: unobserved ``keep_trace=False`` run skips the whole trace layer
        #: at the cost of one attribute read per event site.
        self.active = keep_events

    def keep_records(self) -> None:
        """Keep the event log from here on, even in a run whose result
        will not carry the trace (``keep_trace=False``): for consumers
        that read :meth:`records` when the run finishes."""
        self.active = True

    def emit(self, step: int, time: float, gid: int, kind: str,
             obj: Optional[int] = None,
             info: Optional[Dict[str, object]] = None) -> None:
        """Append one event record to the kept log, as a plain tuple.

        Callers check :attr:`active` first.
        """
        self._records.append((step, time, gid, kind, obj, info or _NO_INFO))

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

    def replay(self, start: int, kinds: Collection[str],
               handler: Callable[[TraceEvent], None]) -> None:
        """Call ``handler``, in order, with an event built from each kept
        record from index ``start`` on whose kind is in ``kinds``."""
        records = self._records[start:] if start else self._records
        # The kind filter runs in C: most records are of kinds no
        # detector reads (sleeps, blocks, timer fires).
        for record in compress(records, map(kinds.__contains__,
                                            map(itemgetter(3), records))):
            handler(TraceEvent(*record))

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
