"""The happens-before engine: one set of vector-clock rules, two orders.

Every analysis that orders events of one run uses this engine, and every
one reads the run's recorded events: the
:class:`repro.detect.race.RaceDetector` (``strict``, replaying the kept
records one by one through :meth:`HBEngine.observe` when the run
finishes) and the predictors of :mod:`repro.predict` (``strict`` or
``weak``, stamping every event of a
:class:`~repro.predict.model.SyncTrace` through :meth:`HBEngine.step`).

The rules are stated once, in one per-event-kind edge table: an incoming
*join*, applied before the event is stamped, and an outgoing *effect*,
applied after it.

* ``strict`` is the recorded order Go's ``-race`` (ThreadSanitizer)
  derives — goroutine fork, channel send/recv/close (with the
  bidirectional rendezvous edge), mutex and RWMutex transfer, WaitGroup,
  Once, Cond, atomics.
* ``weak`` is the *predictive* order: the strict table minus the edges
  that exist only because the scheduler happened to order two regions —
  mutex / write-lock release→acquire, WaitGroup Add→Wait and cond
  signal→wait — while keeping the edges every feasible reordering must
  preserve (fork, channel message and close, read-lock transfer via
  writers, WaitGroup Done→Wait, Once, atomics).  Two events unordered by
  the weak closure can occur in either order in *some* feasible schedule
  of the same program, provided the reordering is not blocked by mutual
  exclusion itself — which is why the race predictor pairs the weak
  order with a lockset check rather than re-adding lock edges.

A :class:`Stamp` is the acting goroutine's full vector clock at the event
(after incoming joins, before its own increment) plus the locks it holds
(per :func:`track_held`, which the lock-order detector shares) — which is
what the predictors consume.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..runtime.trace import EventKind, TraceEvent
from .vectorclock import VectorClock

#: Lockset entry modes: ``"x"`` exclusive (Mutex / RWMutex write lock),
#: ``"r"`` shared (RWMutex read lock).
EXCLUSIVE = "x"
SHARED = "r"


def common_exclusive_lock(a: Iterable[Tuple[int, str]],
                          b: Iterable[Tuple[int, str]]) -> Optional[int]:
    """A lock held in both ``(lock, mode)`` lists with at least one
    exclusive holder, if any."""
    mine = {obj: mode for obj, mode in a}
    for obj, mode in b:
        held = mine.get(obj)
        if held is not None and (held == EXCLUSIVE or mode == EXCLUSIVE):
            return obj
    return None


#: gid -> the ``(lock, mode)`` pairs that goroutine holds, oldest first.
HeldLocks = Dict[int, List[Tuple[int, str]]]

#: Acquiring kind -> mode held; releasing kind -> mode dropped (None:
#: the most recent hold of the lock in either mode).
_TAKES = {EventKind.MU_LOCK: EXCLUSIVE, EventKind.RW_RLOCK: SHARED,
          EventKind.RW_LOCK: EXCLUSIVE}
_DROPS = {EventKind.MU_UNLOCK: None, EventKind.RW_UNLOCK: None,
          EventKind.RW_RUNLOCK: SHARED}

#: The event kinds :func:`track_held` acts on.
LOCK_KINDS = frozenset({**_TAKES, **_DROPS})


def track_held(held: HeldLocks, event: TraceEvent) -> None:
    """Apply one lock or unlock event to ``held``.  A release by a
    goroutine that does not hold the lock (Go lets any goroutine unlock a
    mutex) changes nothing."""
    kind, gid, obj = event.kind, event.gid, event.obj
    if kind in _TAKES:
        held.setdefault(gid, []).append((obj, _TAKES[kind]))
    elif kind in _DROPS:
        mode, locks = _DROPS[kind], held.get(gid, [])
        for i in range(len(locks) - 1, -1, -1):
            if locks[i][0] == obj and mode in (None, locks[i][1]):
                del locks[i]
                return


class Stamp:
    """One event's position in the (strict or weak) happens-before order."""

    __slots__ = ("event", "clock", "count", "locks")

    def __init__(self, event: TraceEvent, clock: VectorClock, count: int,
                 locks: Tuple[Tuple[int, str], ...]):
        self.event = event
        self.clock = clock          # full clock snapshot at the event
        self.count = count          # the acting goroutine's own component
        self.locks = locks          # (lock, mode) held, in acquisition order

    def ordered_before(self, other: "Stamp") -> bool:
        """True when this event happens-before ``other`` in the closure."""
        if self.event.gid == other.event.gid:
            return self.event.step < other.event.step
        return other.clock.get(self.event.gid) >= self.count

    def concurrent_with(self, other: "Stamp") -> bool:
        """Unordered both ways (and on different goroutines)."""
        if self.event.gid == other.event.gid:
            return False
        return not self.ordered_before(other) \
            and not other.ordered_before(self)

    def __repr__(self) -> str:
        return (f"<stamp {self.event.kind}@{self.event.step} "
                f"g{self.event.gid}:{self.count}>")


Handler = Optional[Callable[["HBEngine", TraceEvent], None]]

#: The release stores, one per primitive family: each maps an object id
#: to the join of every clock released into it.
_FAMILIES = ("close", "lock", "readers", "wg", "once", "cond", "atomic")


class HBEngine:
    """Builds the happens-before closure of one run, event by event.

    Events are :class:`~repro.runtime.trace.TraceEvent` objects, replayed
    from a run's kept records or parsed from its exported sync events.
    """

    def __init__(self, mode: str = "strict"):
        edges = _EDGES.get(mode)
        if edges is None:
            raise ValueError(f"unknown HB mode {mode!r}")
        self.mode = mode
        self._edges = edges
        self._clocks: Dict[int, VectorClock] = {}
        self._chan_msgs: Dict[Tuple[Optional[int], Optional[int]],
                              VectorClock] = {}
        self._released: Dict[str, Dict[int, VectorClock]] = {
            family: {} for family in _FAMILIES}
        self._held: HeldLocks = {}

    def clock(self, gid: int) -> VectorClock:
        """Goroutine ``gid``'s live clock (created at epoch 1 on first use)."""
        clock = self._clocks.get(gid)
        if clock is None:
            clock = VectorClock()
            clock.increment(gid)
            self._clocks[gid] = clock
        return clock

    def final_clocks(self) -> Dict[int, VectorClock]:
        """Per-goroutine clocks after every event so far (copies)."""
        return {gid: clock.copy() for gid, clock in self._clocks.items()}

    def process(self, trace: Any) -> List[Stamp]:
        """Consume every event of ``trace`` (a ``SyncTrace``), stamping each."""
        return [self.step(event) for event in trace.events]

    def step(self, event: TraceEvent) -> Stamp:
        """Apply one event's incoming join, stamp it, apply its effect."""
        join, effect = self._edges.get(event.kind, _NO_EDGES)
        if join is not None:
            join(self, event)
        gid = event.gid
        clock = self.clock(gid)
        stamp = Stamp(event, clock.copy(), clock.get(gid),
                      tuple(self._held.get(gid, ())))
        if effect is not None:
            effect(self, event)
        if event.kind in LOCK_KINDS:
            track_held(self._held, event)
        return stamp

    def observe(self, event: TraceEvent) -> None:
        """Apply one event's join and effect without stamping it (and
        without the held-lock bookkeeping only stamps carry)."""
        edges = self._edges.get(event.kind)
        if edges is not None:
            join, effect = edges
            if join is not None:
                join(self, event)
            if effect is not None:
                effect(self, event)

    # -- edge handlers --------------------------------------------------

    def _acquire(self, family: str, event: TraceEvent) -> None:
        slot = self._released[family].get(event.obj)
        if slot is not None:
            self.clock(event.gid).join(slot)

    def _release(self, family: str, event: TraceEvent) -> None:
        clock = self.clock(event.gid)
        store = self._released[family]
        slot = store.get(event.obj)
        if slot is None:
            store[event.obj] = clock.copy()
        else:
            slot.join(clock)
        clock.increment(event.gid)

    def _tick(self, event: TraceEvent) -> None:
        self.clock(event.gid).increment(event.gid)

    def _fork(self, event: TraceEvent) -> None:
        parent = self.clock(event.gid)
        child = int(event.obj)
        child_clock = parent.copy()
        child_clock.increment(child)
        self._clocks[child] = child_clock
        parent.increment(event.gid)

    def _send(self, event: TraceEvent) -> None:
        clock = self.clock(event.gid)
        self._chan_msgs[(event.obj, event.info.get("seq"))] = clock.copy()
        clock.increment(event.gid)

    def _recv(self, event: TraceEvent) -> None:
        gid = event.gid
        info = event.info
        if info.get("closed"):
            self._acquire("close", event)
            return
        msg_clock = self._chan_msgs.pop((event.obj, info.get("seq")), None)
        if info.get("sync") and info.get("partner") is not None:
            # Unbuffered rendezvous synchronizes both directions.
            partner = int(info["partner"])
            recv_pre = self.clock(gid).copy()
            self.clock(gid).join(msg_clock)
            self.clock(partner).join(recv_pre)
            self.clock(partner).increment(partner)
        else:
            self.clock(gid).join(msg_clock)

    def _wg_add(self, event: TraceEvent) -> None:
        if event.info.get("delta", 0) > 0:
            self._release("wg", event)

    def _wg_add_tick(self, event: TraceEvent) -> None:
        if event.info.get("delta", 0) > 0:
            self._tick(event)

    def _once_return(self, event: TraceEvent) -> None:
        if not event.info.get("ran"):
            self._acquire("once", event)

    def _once_ran(self, event: TraceEvent) -> None:
        if event.info.get("ran"):
            self._release("once", event)



def _acquires(*families: str) -> Handler:
    """A join: acquire the event object's clock from each family's store."""
    def join(engine: HBEngine, event: TraceEvent) -> None:
        for family in families:
            engine._acquire(family, event)
    return join


def _releases(family: str) -> Handler:
    """An effect: release the actor's clock into the family's store."""
    def effect(engine: HBEngine, event: TraceEvent) -> None:
        engine._release(family, event)
    return effect


_NO_EDGES: Tuple[Handler, Handler] = (None, None)

E = EventKind
H = HBEngine

#: The recorded order: event kind -> (join before the stamp, effect after).
STRICT_EDGES: Dict[str, Tuple[Handler, Handler]] = {
    E.GO_CREATE: (None, H._fork),
    E.CHAN_SEND: (None, H._send),
    E.CHAN_RECV: (H._recv, H._tick),
    E.CHAN_CLOSE: (None, _releases("close")),
    E.MU_LOCK: (_acquires("lock"), None),
    E.RW_RLOCK: (_acquires("lock"), None),
    E.RW_LOCK: (_acquires("lock", "readers"), None),
    E.MU_UNLOCK: (None, _releases("lock")),
    E.RW_UNLOCK: (None, _releases("lock")),
    E.RW_RUNLOCK: (None, _releases("readers")),
    E.WG_ADD: (None, H._wg_add),
    E.WG_DONE: (None, _releases("wg")),
    E.WG_WAIT: (_acquires("wg"), None),
    E.ONCE_DO: (H._once_return, H._once_ran),
    E.COND_SIGNAL: (None, _releases("cond")),
    E.COND_BROADCAST: (None, _releases("cond")),
    E.COND_WAIT: (_acquires("cond"), None),
    E.ATOMIC_OP: (_acquires("atomic"), _releases("atomic")),
    E.MEM_READ: (None, H._tick),
    E.MEM_WRITE: (None, H._tick),
}

#: The predictive order: the strict table minus its scheduling edges.
WEAK_EDGES: Dict[str, Tuple[Handler, Handler]] = {
    **STRICT_EDGES,
    # Mutex / write-lock release→acquire is the scheduler's coin flip;
    # writers still drain readers.
    E.MU_LOCK: _NO_EDGES,
    E.RW_RLOCK: _NO_EDGES,
    E.RW_LOCK: (_acquires("readers"), None),
    # Wait never waits for Add (Figure 9): Add keeps only its epoch tick.
    # Wait is stamped before joining the Done releases — the moment it
    # could have passed — while later events by the waiter still inherit
    # the real Done→Wait edges.
    E.WG_ADD: (None, H._wg_add_tick),
    E.WG_WAIT: (None, _acquires("wg")),
    # The cond wakeup pairing is timing.
    E.COND_WAIT: _NO_EDGES,
}

_EDGES = {"strict": STRICT_EDGES, "weak": WEAK_EDGES}

del E, H


def weak_stamps(trace: Any) -> List[Stamp]:
    """The predictive (relaxed) closure of ``trace``, stamped per event."""
    return HBEngine(mode="weak").process(trace)


def strict_stamps(trace: Any) -> List[Stamp]:
    """The recorded-order closure, identical to the dynamic race detector's."""
    return HBEngine(mode="strict").process(trace)
