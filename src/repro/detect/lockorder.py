"""Lock-order (potential-deadlock) analysis, plain and predictive.

Implication 4 of the paper: "future research should focus on building
novel blocking bug detection techniques, for example, with a combination
of static and dynamic blocking pattern detection."  This is the classic
dynamic half (lockdep/GoodLock): a lock-acquisition order graph — an
edge ``A -> B`` whenever some goroutine requests ``B`` while holding
``A`` (:func:`ordered_before`) — whose every cycle is a *potential*
deadlock, even in runs where the timing never lined up.

:class:`LockOrderDetector` reports every cycle of one run's graph, built
from the run's recorded lock events when it finishes: on the AB/BA
kernel the built-in detector needs the deadlock to *happen*; this one
flags the inversion on every schedule.  :func:`predict_lock_cycles`
builds the same graph and keeps a cycle only when its witnessing
requests can overlap — distinct goroutines, pairwise concurrent under
the weak happens-before order.  A pipeline that takes ``A -> B`` in one
stage and ``B -> A`` in a later stage the first one *starts* shows a
textual cycle but can never interleave into a deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional,
                    Set, Tuple)

from ..runtime.trace import EventKind, Trace, TraceEvent
from .hb import EXCLUSIVE, LOCK_KINDS, HeldLocks, Stamp, track_held

if TYPE_CHECKING:
    from ..predict.model import SyncTrace

_REQUEST = frozenset((EventKind.MU_REQUEST, EventKind.RW_REQUEST))
#: The kinds :meth:`LockOrderDetector.on_event` acts on.
_READS = _REQUEST | LOCK_KINDS

Witness = Tuple[int, int, int]   # (requesting gid, held lock, wanted lock)


def ordered_before(held: Iterable[Tuple[int, str]], wanted: int) -> List[int]:
    """The locks a request for ``wanted`` orders before it: every other
    lock the requester holds exclusively, oldest first.

    Edges come from *requests*: a goroutine parked forever on its second
    lock still witnesses the inversion (lockdep-style).  Read locks are
    shared and establish no order.
    """
    return [lock for lock, mode in held
            if mode == EXCLUSIVE and lock != wanted]


@dataclass(frozen=True)
class LockOrderViolation:
    """A cycle in the lock acquisition-order graph."""

    cycle: Tuple[int, ...]          # lock object ids, in cycle order
    witnesses: Tuple[Witness, ...]

    def __str__(self) -> str:
        chain = " -> ".join(f"lock#{obj}" for obj in self.cycle)
        return (f"POTENTIAL DEADLOCK: lock-order cycle {chain} -> "
                f"lock#{self.cycle[0]} "
                f"({len(self.witnesses)} witnessed inversions)")


class LockOrderDetector:
    """Observer building the acquisition-order graph for one run.

    Each ``attach`` starts a fresh graph, so a detector reused across runs
    reports only the run it is attached to.

    Attach to :func:`repro.run` like the other detectors::

        detector = LockOrderDetector()
        run(program, observers=[detector])
        for violation in detector.violations: ...

    Write locks on RWMutexes participate; read locks are ignored (shared
    acquisitions do not establish an exclusive order, and Go's
    writer-priority read-lock deadlock is a different shape caught by the
    leak detector).
    """

    name = "lock-order-detector"

    def __init__(self) -> None:
        self._reset()
        #: The attached run's trace and its length at ``attach``, until
        #: ``finish`` replays the records emitted since.
        self._trace: Optional[Trace] = None
        self._start = 0

    def _reset(self) -> None:
        #: edges[(a, b)] -> first witness (gid, a, b) of "b requested
        #: holding a", in the order the edges were first seen.
        self.edges: Dict[Tuple[int, int], Witness] = {}
        self._held: HeldLocks = {}
        self.violations: List[LockOrderViolation] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------

    def attach(self, rt) -> None:
        self._reset()
        self._trace = rt.sched.trace
        self._start = len(self._trace)
        self._trace.keep_records()

    def finish(self, result) -> None:
        if self._trace is not None:
            self._trace.replay(self._start, _READS, self.on_event)
            self._trace = None
        self.analyze()
        setattr(result, "lock_order_violations", list(self.violations))

    @property
    def detected(self) -> bool:
        if not self._finalized:
            self.analyze()
        return bool(self.violations)

    # ------------------------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind in _REQUEST:
            gid, wanted = event.gid, event.obj
            for lock in ordered_before(self._held.get(gid, ()), wanted):
                self.edges.setdefault((lock, wanted), (gid, lock, wanted))
        elif kind in LOCK_KINDS:
            track_held(self._held, event)

    # ------------------------------------------------------------------
    # Cycle detection
    # ------------------------------------------------------------------

    def analyze(self) -> List[LockOrderViolation]:
        """Find elementary cycles in the order graph (small graphs: DFS)."""
        self._finalized = True
        self.violations = [
            LockOrderViolation(cycle, tuple(
                self.edges[edge] for edge in _cycle_edges(cycle)))
            for cycle in elementary_cycles(self.edges)
        ]
        return self.violations


def _cycle_edges(cycle: Tuple[int, ...]) -> List[Tuple[int, int]]:
    return [(a, cycle[(i + 1) % len(cycle)]) for i, a in enumerate(cycle)]


def elementary_cycles(pairs: Iterable[Tuple[int, int]]
                      ) -> List[Tuple[int, ...]]:
    """Every elementary cycle of the directed graph with edges ``pairs``,
    once per node set, each listed from its smallest node, in DFS order
    (successors ascending)."""
    graph: Dict[int, Set[int]] = {}
    for a, b in pairs:
        graph.setdefault(a, set()).add(b)
    cycles: List[Tuple[int, ...]] = []
    seen: Set[FrozenSet[int]] = set()
    for start in sorted(graph):
        _collect_cycles(graph, start, start, [start], seen, cycles)
    return cycles


def _collect_cycles(graph: Dict[int, Set[int]], start: int, node: int,
                    path: List[int], seen: Set[FrozenSet[int]],
                    out: List[Tuple[int, ...]]) -> None:
    # Module-level recursion: a self-recursive closure would be a
    # function <-> cell reference cycle on every call.
    for nxt in sorted(graph.get(node, ())):
        if nxt == start and len(path) > 1:
            key = frozenset(path)
            if key not in seen:
                seen.add(key)
                out.append(tuple(path))
        elif nxt not in path and nxt > start:
            # Only explore nodes above `start` so each cycle is found
            # once, from its smallest node.
            _collect_cycles(graph, start, nxt, path + [nxt], seen, out)


# ----------------------------------------------------------------------
# Offline prediction
# ----------------------------------------------------------------------


def request_edges(stamps: Iterable[Stamp]
                  ) -> Dict[Tuple[int, int], List[Stamp]]:
    """The order graph of a stamped trace: each edge with every request
    that witnesses it, in trace order (edges in first-seen order)."""
    edges: Dict[Tuple[int, int], List[Stamp]] = {}
    for stamp in stamps:
        event = stamp.event
        if event.kind in _REQUEST:
            wanted = int(event.obj)  # type: ignore[arg-type]
            for lock in ordered_before(stamp.locks, wanted):
                edges.setdefault((lock, wanted), []).append(stamp)
    return edges


def predict_lock_cycles(trace: "SyncTrace", stamps: List[Stamp]
                        ) -> List[LockOrderViolation]:
    """Feasible lock-order cycles predicted from one recorded run.

    ``stamps`` must come from the weak engine over the same ``trace``.
    """
    edges = request_edges(stamps)
    violations: List[LockOrderViolation] = []
    for cycle in elementary_cycles(edges):
        pairs = _cycle_edges(cycle)
        chosen: List[Stamp] = []
        if _assign([edges[pair] for pair in pairs], chosen):
            violations.append(LockOrderViolation(cycle, tuple(
                (stamp.event.gid, a, b)
                for (a, b), stamp in zip(pairs, chosen))))
    return violations


def _assign(per_edge: List[List[Stamp]], chosen: List[Stamp]) -> bool:
    """Extend ``chosen`` with one witness per remaining cycle edge, all
    pairwise weak-HB concurrent (so on distinct goroutines); False if no
    such assignment exists.  Module-level like :func:`_collect_cycles`."""
    if len(chosen) == len(per_edge):
        return True
    for candidate in per_edge[len(chosen)]:
        if all(c.concurrent_with(candidate) for c in chosen):
            chosen.append(candidate)
            if _assign(per_edge, chosen):
                return True
            chosen.pop()
    return False
