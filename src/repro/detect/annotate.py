"""Choice-point annotation for the systematic explorer.

The explorer's schedule tree branches on raw ``randrange`` indices; to
prune equivalent branches it must know what each choice *did*.  This
module answers that after the run, from two logs the run already keeps:

* the scheduler's pick log (:meth:`Scheduler.record_picks`) names, for
  every scheduling decision, the runnable goroutines offered and the
  index chosen.  A ``select`` draw leaves a marker in it, so a pick's log
  index is its position in the scripted choice log;
* the trace records stamp every event with the step it ran in, so the
  events a picked goroutine then performs — the decision's *segment* —
  are the records of that pick's step.  A segment reduces to a
  **footprint**: the set of synchronization objects and goroutines it
  touched.

Nothing runs per step beyond the log append: an annotation is built only
when the explorer looks its position up, and it looks up only the picks a
pruning decision reads.  Elsewhere it asks whether a position is a pick
at all (``position in annotations``), which reads the pick log alone.

Footprints drive the sleep-set pruning rule in
:mod:`repro.detect.systematic`: two segments on different goroutines with
disjoint footprints commute, so schedules differing only in their order
are equivalent.  Soundness demands the footprint never *understate* a
segment's interactions.  The scheduler therefore names the wait queues a
blocked attempt registers on (``GO_BLOCK`` carries the primitive id, or
the full case-channel set for a select) and ``select.begin`` carries
every case channel it consults, so those reduce to ordinary object
tokens.  Sleeps reduce to a single shared timer token ``("t", 0)``: two
sleeps may contend on wake order, but a sleep commutes with any channel
or lock operation (clock *advances* still poison, see below).

Anything the event stream cannot fully describe poisons the segment
(treated as dependent on everything):

* ``GO_BLOCK`` without a named object (external waits, nil channels);
* timer fires (the clock advance reorders every deadline), external
  waits, injected faults, panics, the main goroutine ending (changes run
  length), network fabric activity, and any event kind this table does
  not know.

Everything else contributes tokens: ``("o", id)`` for a primitive object,
``("g", gid)`` for goroutine-directed effects (spawn, unblock, completing
a peer's parked operation).  Every segment also carries its own
goroutine's ``("g", gid)`` token, so two segments of the same goroutine
never commute.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import (Any, FrozenSet, Iterable, Iterator, List, Optional,
                    Tuple)

from ..runtime.scheduler import PickRecord
from ..runtime.trace import EventKind, Record, Trace

__all__ = ["ChoiceAnnotator", "PickAnnotation", "PickAnnotations"]

#: The shared virtual-clock token: all sleep registrations conflict with
#: each other (wake order) but commute with channel/lock traffic.
_TIMER_TOKEN = ("t", 0)

#: Event kinds that carry no cross-goroutine information at all.
_INERT_KINDS = frozenset({
    EventKind.SELECT_COMMIT,
})

#: Event kinds whose ``obj`` is a goroutine id, not a primitive id.
_GID_OBJ_KINDS = frozenset({
    EventKind.GO_CREATE,
    EventKind.GO_UNBLOCK,
})

#: Event kinds whose ``obj`` names a synchronization primitive.
_OBJ_KINDS = frozenset({
    EventKind.CHAN_MAKE, EventKind.CHAN_SEND, EventKind.CHAN_RECV,
    EventKind.CHAN_CLOSE,
    EventKind.MU_REQUEST, EventKind.MU_LOCK, EventKind.MU_UNLOCK,
    EventKind.RW_RLOCK, EventKind.RW_RUNLOCK, EventKind.RW_REQUEST,
    EventKind.RW_LOCK, EventKind.RW_UNLOCK,
    EventKind.WG_ADD, EventKind.WG_DONE, EventKind.WG_WAIT,
    EventKind.ONCE_DO,
    EventKind.COND_WAIT, EventKind.COND_SIGNAL, EventKind.COND_BROADCAST,
    EventKind.ATOMIC_OP,
    EventKind.MEM_READ, EventKind.MEM_WRITE,
})

#: gid of the program's main goroutine (first spawned by ``run``).
MAIN_GID = 1


@dataclass(frozen=True)
class PickAnnotation:
    """One scheduling decision: who was offered, who ran, what they touched.

    Attributes:
        position: index into the scripted choice log (which ``randrange``
            call this pick was).
        gids: runnable goroutine ids offered, in runnable-list order
            (``gids[chosen]`` ran).
        chosen: the index drawn.
        tokens: footprint of the segment the chosen goroutine then
            executed, as ``("o", id)`` / ``("g", gid)`` pairs.
        poisoned: True when the footprint may be incomplete; a poisoned
            segment never justifies pruning.
    """

    position: int
    gids: Tuple[int, ...]
    chosen: int
    tokens: FrozenSet[Tuple[str, int]]
    poisoned: bool


class PickAnnotations:
    """The pick annotations of one run, each built when it is looked up.

    The explorer reads a few positions of each run (the pick that
    branched it, and the picks it expands where a sleep set is live or a
    branch is possible), so footprints are computed for those alone.
    ``position in annotations`` tells a pick from a select draw without
    building anything.  Iterating yields every pick in position order.
    """

    __slots__ = ("_log", "_records", "_steps")

    def __init__(self, log: List[Optional[PickRecord]],
                 records: List[Record]):
        self._log = log
        self._records = records
        #: The records' steps, to find a segment by bisection.  Records
        #: kept after this point (run teardown) belong to no segment.
        self._steps = list(map(itemgetter(0), records))

    def __contains__(self, position: int) -> bool:
        """True when choice-log ``position`` is a scheduling pick (not a
        select draw, and within the run)."""
        return 0 <= position < len(self._log) and \
            self._log[position] is not None

    def get(self, position: int) -> Optional[PickAnnotation]:
        """The pick at choice-log ``position``, or None for a select draw
        or a position past the end of the run."""
        if not 0 <= position < len(self._log):
            return None
        pick = self._log[position]
        if pick is None:
            return None
        step, runnable, chosen = pick
        steps = self._steps
        segment = islice(self._records, bisect_left(steps, step),
                         bisect_right(steps, step))
        gids = tuple(g.gid for g in runnable)
        tokens, poisoned = _footprint(gids[chosen], segment)
        return PickAnnotation(position, gids, chosen, tokens, poisoned)

    def __iter__(self) -> Iterator[PickAnnotation]:
        for position in range(len(self._log)):
            annotation = self.get(position)
            if annotation is not None:
                yield annotation


def _footprint(gid: int, segment: Iterable[Record]
               ) -> Tuple[FrozenSet[Tuple[str, int]], bool]:
    """The tokens a segment run by ``gid`` touched, and whether anything
    in it escapes the token vocabulary (see the module docstring)."""
    tokens = {("g", gid)}
    poisoned = False
    for _step, _time, egid, kind, obj, info in segment:
        if kind in _OBJ_KINDS:
            if obj is not None:
                tokens.add(("o", obj))
            else:  # pragma: no cover - defensive
                poisoned = True
            if egid != gid:
                # Completing a parked peer's operation touches that peer.
                tokens.add(("g", egid))
        elif kind in _GID_OBJ_KINDS:
            tokens.add(("g", obj))
        elif kind == EventKind.GO_BLOCK:
            objs = info.get("objs")
            if obj is not None:
                tokens.add(("o", obj))
            elif objs:
                tokens.update(("o", o) for o in objs)
            elif info.get("reason") == "time.sleep":
                tokens.add(_TIMER_TOKEN)
            else:
                # External waits, nil channels: wait queue unnamed.
                poisoned = True
        elif kind == EventKind.SELECT_BEGIN:
            chans = info.get("chans")
            if chans is None:  # pragma: no cover - defensive
                poisoned = True
            else:
                tokens.update(("o", o) for o in chans)
        elif kind == EventKind.SLEEP:
            tokens.add(_TIMER_TOKEN)
        elif kind == EventKind.GO_END:
            if egid == MAIN_GID:
                # Main ending flips the run into drain mode.
                poisoned = True
            else:
                tokens.add(("g", egid))
        elif kind in _INERT_KINDS:
            pass
        else:
            # Timer fires, faults, panics, net.*, unknown kinds.
            poisoned = True
    return frozenset(tokens), poisoned


class ChoiceAnnotator:
    """Observer that annotates every pick of one run with its footprint.

    Pass in ``observers=[annotator]`` to :func:`repro.run` alongside the
    scripted ``rng``; read :attr:`picks` afterwards.  Attaching asks the
    scheduler for its pick log and the trace for its records, which it
    keeps even in a ``keep_trace=False`` run (whose result still carries
    no trace).  It takes no call during the run: the run pays one log
    append per pick and one record per event.
    """

    def __init__(self) -> None:
        self.picks: Optional[PickAnnotations] = None
        self._log: Optional[List[Optional[PickRecord]]] = None
        self._trace: Optional[Trace] = None

    # -- observer protocol -------------------------------------------------

    def attach(self, rt: Any) -> None:
        sched = rt.sched
        self._log = sched.record_picks()
        self._trace = sched.trace
        self._trace.keep_records()

    def finish(self, result: Any) -> None:
        assert self._log is not None and self._trace is not None
        self.picks = PickAnnotations(self._log, self._trace.records())
        self._log = self._trace = None
