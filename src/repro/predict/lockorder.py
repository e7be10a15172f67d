"""Predicted lock-order (ABBA) deadlocks with a feasibility gate.

The dynamic :class:`repro.detect.lockorder.LockOrderDetector` reports
every cycle in the acquisition-order graph.  Offline we can do one
better: a cycle is only a *feasible* deadlock when its witnessing
inversions can overlap — distinct goroutines whose lock requests are
concurrent under the weak happens-before order.  A pipeline that takes
``A -> B`` in one stage and ``B -> A`` in a later stage that the first
one *starts* (fork or channel edge between them) shows a textual cycle
but can never interleave into a deadlock; the gate rejects it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..detect.hb import EXCLUSIVE, Stamp
from ..detect.lockorder import LockOrderViolation, elementary_cycles
from ..runtime.trace import EventKind
from .model import SyncTrace

_REQUEST = (EventKind.MU_REQUEST, EventKind.RW_REQUEST)


class _Edge:
    """One witnessed inversion: ``gid`` requested ``wanted`` holding
    ``held``, stamped at the request."""

    __slots__ = ("gid", "held", "wanted", "stamp")

    def __init__(self, gid: int, held: int, wanted: int, stamp: Stamp):
        self.gid = gid
        self.held = held
        self.wanted = wanted
        self.stamp = stamp


def predict_lock_cycles(trace: SyncTrace, stamps: List[Stamp]
                        ) -> List[LockOrderViolation]:
    """Feasible lock-order cycles predicted from one recorded run.

    ``stamps`` must come from the weak engine over the same ``trace``.
    Only exclusive holds establish order (read locks are shared).
    """
    edges: Dict[Tuple[int, int], List[_Edge]] = {}
    for stamp in stamps:
        e = stamp.event
        if e.kind not in _REQUEST:
            continue
        for lock, mode in stamp.locks:
            if mode != EXCLUSIVE or lock == e.obj:
                continue
            key = (lock, int(e.obj))  # type: ignore[arg-type]
            edges.setdefault(key, []).append(
                _Edge(e.gid, lock, int(e.obj), stamp))  # type: ignore

    violations: List[LockOrderViolation] = []
    for cycle in elementary_cycles(edges):
        witnesses = _feasible_witnesses(cycle, edges)
        if witnesses is not None:
            violations.append(LockOrderViolation(cycle, witnesses))
    return violations


def _feasible_witnesses(cycle: Tuple[int, ...],
                        edges: Dict[Tuple[int, int], List[_Edge]]
                        ) -> "Tuple[Tuple[int, int, int], ...] | None":
    """Pick one witness per cycle edge such that all witnesses are on
    distinct goroutines and pairwise weak-HB concurrent; None if no such
    assignment exists (the cycle cannot interleave into a deadlock)."""
    per_edge: List[List[_Edge]] = []
    for i, a in enumerate(cycle):
        b = cycle[(i + 1) % len(cycle)]
        per_edge.append(edges[(a, b)])

    chosen: List[_Edge] = []

    def assign(i: int) -> bool:
        if i == len(per_edge):
            return True
        for candidate in per_edge[i]:
            if any(c.gid == candidate.gid for c in chosen):
                continue
            if any(not c.stamp.concurrent_with(candidate.stamp)
                   for c in chosen):
                continue
            chosen.append(candidate)
            if assign(i + 1):
                return True
            chosen.pop()
        return False

    if not assign(0):
        return None
    return tuple((c.gid, c.held, c.wanted) for c in chosen)
