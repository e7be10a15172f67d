"""The per-step hot path: one import surface, compiled when possible.

Three pieces of the simulator dominate sweep profiles: the scheduler's
per-step decision loop, the ``randrange`` draws feeding it, and the
vector-clock joins the happens-before engine (:mod:`repro.detect.hb`)
performs per trace event.  This module hosts all
three behind one stable surface:

* :data:`BatchedRandom` — the scheduling RNG.  The compiled MT19937 from
  ``repro.runtime._ext._hotloop`` when the extension builds here, else the
  pure-Python :class:`repro.runtime.fastrand.BatchedRandom`.  Both draw the
  exact sequence ``random.Random(seed).randrange(n)`` would, so which one a
  run gets never changes a schedule.
* :func:`get_drive` — the fused per-step scheduler loop (compiled only).
  Returns ``None`` when unavailable; the scheduler then runs its pure loop.
  The compiled loop engages only when nothing observable differs: no trace
  consumer, no fault injector, no observe hooks, structured stop conditions
  and the stock RNG (see ``Scheduler.run_until_quiescent``).
* :class:`VectorClock` — array-backed vector clocks (a dense list indexed
  by gid, matching the simulator's small dense goroutine ids) behind the
  exact API the old sparse dict-backed clock exposed.

Set ``REPRO_NO_CEXT=1`` to force every pure-Python path; the parity tests
run both ways and assert byte-identical results.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from . import _ext
from .fastrand import BatchedRandom as PyBatchedRandom

_c = _ext.get_hotloop()

#: True when the compiled extension loaded (BatchedRandom and the fused
#: loop are C; False on other platforms / REPRO_NO_CEXT=1).
HAS_COMPILED = _c is not None

#: The scheduling RNG class every Scheduler instantiates by default.
BatchedRandom: Any = _c.BatchedRandom if _c is not None else PyBatchedRandom

_drive: Optional[Callable[[Any], Optional[str]]] = None
_drive_resolved = False

_fastops: Optional[Any] = None
_fastops_resolved = False

#: When True every accessor below reports "not compiled" even though the
#: extension is loaded — the bench harness uses this to measure the pure
#: paths in the same process (see :func:`force_pure`).
_force_pure = False


def get_drive() -> Optional[Callable[[Any], Optional[str]]]:
    """The compiled ``drive(scheduler)`` step loop, or None without it.

    First call binds the extension to the runtime classes (slot offsets,
    state constants, the continuation switch); that may lazily compile
    ``_ctasklet`` for the fast switching path.  Only tasklet-vehicle
    schedulers call it; the thread vehicle hands off directly and never
    enters the centralized loop.
    """
    global _drive, _drive_resolved
    if not _drive_resolved:
        _drive_resolved = True
        if _c is not None:
            try:
                from .goroutine import (
                    Goroutine,
                    GState,
                    TaskletGoroutine,
                    tasklet_module,
                )

                mod = tasklet_module()
                _c.bind(Goroutine, TaskletGoroutine, GState,
                        mod.Tasklet if mod is not None else None)
                _drive = _c.drive
            except Exception:  # pragma: no cover - defensive: stay pure
                _drive = None
    if _force_pure:
        return None
    return _drive


def get_fastops() -> Optional[Any]:
    """The compiled channel/select/sync fast ops, or None without them.

    Returns the extension module itself (``chan_send``, ``chan_recv``,
    ``select_op``, ``mutex_lock``, ... live on it); every op re-checks
    engagement per call and returns ``NotImplemented`` to defer to the
    pure primitive whenever a trace consumer, fault injector or missing
    goroutine context makes the pure path observable.  First call binds
    the primitive classes' slot offsets into the extension.
    """
    global _fastops, _fastops_resolved
    if not _fastops_resolved:
        _fastops_resolved = True
        get_drive()  # ensure bind() ran (slot offsets the fast ops share)
        if _c is not None and _drive is not None:
            try:
                from collections import deque

                from ..chan.cases import RecvCase, SendCase
                from ..chan.channel import Channel, _Waiter
                from ..chan.select import _SelectContext
                from ..sync.mutex import Mutex, _Ticket as _MuTicket
                from ..sync.rwmutex import RWMutex, _Ticket as _RWTicket
                from .errors import GoPanic, Killed
                from .goroutine import Goroutine, GState, TaskletGoroutine
                from .trace import Trace

                _c.bind_fastops(
                    Channel, _Waiter, _SelectContext, SendCase, RecvCase,
                    Mutex, _MuTicket, RWMutex, _RWTicket, Trace,
                    Goroutine, TaskletGoroutine, GState, GoPanic, Killed,
                    deque,
                )
                _fastops = _c
            except Exception:  # pragma: no cover - defensive: stay pure
                _fastops = None
    if _force_pure:
        return None
    return _fastops


class force_pure:
    """Context manager: run with every compiled fast path disabled.

    Schedulers constructed inside the ``with`` block get neither the
    compiled drive loop nor the compiled fast ops, exactly as under
    ``REPRO_NO_CEXT=1`` — the bench harness measures pure cells this way,
    and the parity tests diff compiled-vs-pure runs in one process.
    (Schedulers constructed *outside* the block keep whatever they
    resolved at construction time.)
    """

    def __enter__(self) -> "force_pure":
        global _force_pure
        self._prev = _force_pure
        _force_pure = True
        return self

    def __exit__(self, *exc: Any) -> None:
        global _force_pure
        _force_pure = self._prev


# ---------------------------------------------------------------------------
# Array-backed vector clocks
# ---------------------------------------------------------------------------

#: Compiled O(#gids) join / compare kernels over the dense count lists
#: (None without the extension; ``force_pure`` also disables them).
_vc_join = getattr(_c, "vc_join", None) if _c is not None else None
_vc_le = getattr(_c, "vc_le", None) if _c is not None else None


class VectorClock:
    """A vector clock over goroutine ids, dense-array backed.

    Goroutine ids are small consecutive integers (the scheduler hands them
    out from 1), so a list indexed by gid beats a sparse dict on every hot
    operation: ``get`` is one index, ``join`` is an elementwise max with no
    hashing.  The API — and every observable result, including nonzero-
    filtered equality — is identical to the historical dict-backed clock;
    epoch pairs ``(gid, count)`` keep the FastTrack-style O(1)
    ordered-with-current checks.
    """

    __slots__ = ("_v",)

    def __init__(self,
                 counts: Union[None, Dict[int, int], List[int]] = None):
        if counts is None:
            self._v: List[int] = []
        elif type(counts) is list:  # internal fast path (copy/join results)
            self._v = counts[:]
        else:
            v: List[int] = []
            for gid, count in counts.items():
                if gid >= len(v):
                    v.extend([0] * (gid + 1 - len(v)))
                v[gid] = count
            self._v = v

    def get(self, gid: int) -> int:
        v = self._v
        return v[gid] if 0 <= gid < len(v) else 0

    def increment(self, gid: int) -> None:
        v = self._v
        if gid >= len(v):
            v.extend([0] * (gid + 1 - len(v)))
        v[gid] += 1

    def join(self, other: Optional["VectorClock"]) -> None:
        """Pointwise maximum: ``self = self ⊔ other``."""
        if other is None:
            return
        if _vc_join is not None and not _force_pure:
            _vc_join(self._v, other._v)
            return
        v, o = self._v, other._v
        if len(o) > len(v):
            v.extend([0] * (len(o) - len(v)))
        for gid, count in enumerate(o):
            if count > v[gid]:
                v[gid] = count

    def copy(self) -> "VectorClock":
        return VectorClock(self._v)

    def epoch(self, gid: int) -> Tuple[int, int]:
        """The ``(gid, count)`` epoch of this clock's own component."""
        return gid, self.get(gid)

    def dominates_epoch(self, epoch: Tuple[int, int]) -> bool:
        """True when the access stamped ``epoch`` happens-before this clock."""
        gid, count = epoch
        return self.get(gid) >= count

    def __le__(self, other: "VectorClock") -> bool:
        if _vc_le is not None and not _force_pure:
            return _vc_le(self._v, other._v)
        v, o = self._v, other._v
        olen = len(o)
        for gid, count in enumerate(v):
            if count > (o[gid] if gid < olen else 0):
                return False
        return True

    def _trimmed(self) -> List[int]:
        v = self._v
        n = len(v)
        while n and v[n - 1] == 0:
            n -= 1
        return v[:n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        # Zero components are indistinguishable from absent ones, exactly
        # as the sparse clock's nonzero-filtered comparison had it.
        return self._trimmed() == other._trimmed()

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(self._trimmed()))

    def concurrent_with(self, other: "VectorClock") -> bool:
        return not (self <= other) and not (other <= self)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter([(gid, count)
                     for gid, count in enumerate(self._v) if count])

    def __repr__(self) -> str:
        inner = ",".join(f"g{g}:{c}" for g, c in self.items())
        return f"VC({inner})"


__all__ = ["BatchedRandom", "HAS_COMPILED", "VectorClock", "force_pure",
           "get_drive", "get_fastops"]
