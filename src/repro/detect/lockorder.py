"""Lock-order (potential-deadlock) detector.

Implication 4 of the paper: "future research should focus on building
novel blocking bug detection techniques, for example, with a combination
of static and dynamic blocking pattern detection."  This detector is the
classic dynamic half (lockdep/GoodLock): it builds a lock-acquisition
order graph from the trace — an edge ``A -> B`` whenever some goroutine
acquires ``B`` while holding ``A`` — and reports every cycle as a
*potential* deadlock, even in runs where the timing never lined up and
nothing actually blocked.

The companion ablation shows the point: on the AB/BA kernel the built-in
detector needs the deadlock to *happen*; the lock-order detector flags
the inversion on every schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..runtime.trace import EventKind, TraceEvent

_REQUEST = {EventKind.MU_REQUEST, EventKind.RW_REQUEST}
_ACQUIRE = {EventKind.MU_LOCK, EventKind.RW_LOCK}
_RELEASE = {EventKind.MU_UNLOCK, EventKind.RW_UNLOCK}


@dataclass(frozen=True)
class LockOrderViolation:
    """A cycle in the lock acquisition-order graph."""

    cycle: Tuple[int, ...]          # lock object ids, in cycle order
    witnesses: Tuple[Tuple[int, int, int], ...]  # (holder gid, held, wanted)

    def __str__(self) -> str:
        chain = " -> ".join(f"lock#{obj}" for obj in self.cycle)
        return (f"POTENTIAL DEADLOCK: lock-order cycle {chain} -> "
                f"lock#{self.cycle[0]} "
                f"({len(self.witnesses)} witnessed inversions)")


class LockOrderDetector:
    """Observer building the acquisition-order graph for one run.

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
        #: edges[(a, b)] -> witness (gid, a, b) for "b acquired holding a".
        self.edges: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        self._held: Dict[int, List[int]] = {}  # gid -> stack of held locks
        self.violations: List[LockOrderViolation] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------

    def attach(self, rt) -> None:
        rt.sched.trace.subscribe(self.on_event)

    def finish(self, result) -> None:
        self.analyze()
        setattr(result, "lock_order_violations", list(self.violations))

    @property
    def detected(self) -> bool:
        if not self._finalized:
            self.analyze()
        return bool(self.violations)

    # ------------------------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        if event.kind in _REQUEST:
            # Edges come from *requests*: a goroutine parked forever on its
            # second lock still witnesses the inversion (lockdep-style).
            held = self._held.get(event.gid, ())
            for prior in held:
                if prior != event.obj:
                    self.edges.setdefault(
                        (prior, event.obj), (event.gid, prior, event.obj)
                    )
        elif event.kind in _ACQUIRE:
            self._held.setdefault(event.gid, []).append(event.obj)
        elif event.kind in _RELEASE:
            held = self._held.get(event.gid)
            if held and event.obj in held:
                # Locks can be released out of order (and by other
                # goroutines, which we conservatively ignore here).
                held.remove(event.obj)

    # ------------------------------------------------------------------
    # Cycle detection
    # ------------------------------------------------------------------

    def analyze(self) -> List[LockOrderViolation]:
        """Find elementary cycles in the order graph (small graphs: DFS)."""
        self._finalized = True
        self.violations = [
            LockOrderViolation(cycle, tuple(
                self.edges[(a, cycle[(i + 1) % len(cycle)])]
                for i, a in enumerate(cycle)))
            for cycle in elementary_cycles(self.edges)
        ]
        return self.violations


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
