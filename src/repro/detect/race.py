"""The happens-before data race detector.

A reimplementation of the detector the paper evaluates in Section 6.3: Go's
``-race`` mode, which "uses the same happen-before algorithm as
ThreadSanitizer" and keeps **up to four shadow words per memory object**.
Both properties are reproduced:

* Happens-before edges come from the strict
  :class:`~repro.detect.hb.HBEngine`, the same engine the offline
  predictors replay: goroutine creation, channel send/recv/close (with
  the bidirectional rendezvous edge for unbuffered channels), mutex and
  RWMutex transfer, WaitGroup Add/Done→Wait, Once execution→return, Cond
  signal, and atomic operations.
* Each :class:`~repro.sync.shared.SharedVar` keeps at most
  ``shadow_words`` recent accesses; older ones are evicted, so long
  histories can hide races — the paper's third miss cause in Table 12.
  Pass ``shadow_words=None`` for the unlimited-history ablation.

Usage::

    det = RaceDetector()
    result = run(program, seed=3, observers=[det])
    for report in det.reports: print(report)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..runtime.trace import EventKind, Trace, TraceEvent
from .hb import STRICT_EDGES, HBEngine
from .report import Access, RaceReport
from .vectorclock import VectorClock


class _Shadow:
    """One shadow word: a stamped access to a memory object."""

    __slots__ = ("gid", "epoch", "is_write", "step")

    def __init__(self, gid: int, epoch: Tuple[int, int], is_write: bool, step: int):
        self.gid = gid
        self.epoch = epoch
        self.is_write = is_write
        self.step = step


class RaceDetector:
    """Vector-clock data race detector (observer for :func:`repro.run`).

    The strict :class:`~repro.detect.hb.HBEngine` orders the events; this
    class adds only the shadow-word policy on top of it.
    """

    name = "go-race-detector"

    def __init__(self, shadow_words: Optional[int] = 4,
                 max_reports_per_var: int = 1):
        self.shadow_words = shadow_words
        self.max_reports_per_var = max_reports_per_var
        self.reports: List[RaceReport] = []
        self._engine = HBEngine()
        self._shadows: Dict[int, Deque[_Shadow]] = {}
        self._reported_vars: Dict[int, int] = {}
        #: The attached run's trace and its length at ``attach``, until
        #: ``finish`` replays the records emitted since.
        self._trace: Optional[Trace] = None
        self._start = 0

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------

    def attach(self, rt) -> None:
        self._trace = rt.sched.trace
        self._start = len(self._trace)
        self._trace.keep_records()

    def finish(self, result) -> None:
        # The strict edge table names every kind this detector acts on
        # (accesses included); no other kind is replayed.
        if self._trace is not None:
            self._trace.replay(self._start, STRICT_EDGES, self.on_event)
            self._trace = None
        # Expose reports on the result for convenience.
        setattr(result, "races", list(self.reports))

    @property
    def detected(self) -> bool:
        return bool(self.reports)

    def final_clocks(self) -> Dict[int, VectorClock]:
        """Per-goroutine clocks after the run (copies).

        The observable happens-before closure: the offline replay of the
        exported sync-event stream through a strict
        :class:`~repro.detect.hb.HBEngine` must reproduce these
        clock-for-clock (round-trip test).
        """
        return self._engine.final_clocks()

    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == EventKind.MEM_READ or kind == EventKind.MEM_WRITE:
            self._check_access(event)
        self._engine.observe(event)

    # ------------------------------------------------------------------
    # Shadow-word race checking
    # ------------------------------------------------------------------

    def _check_access(self, event: TraceEvent) -> None:
        """Check one access against its object's shadow words, then record it.

        Runs before the engine applies the access, so ``clock`` is the
        accessor's clock at the access; the engine's own epoch tick then
        makes later accesses by the same goroutine distinguishable.
        """
        gid = event.gid
        obj = int(event.obj)  # type: ignore[arg-type]
        is_write = event.kind == EventKind.MEM_WRITE
        name = str(event.info.get("name", f"var#{obj}"))
        clock = self._engine.clock(gid)

        shadows = self._shadows.get(obj)
        if shadows is None:
            shadows = deque()
            self._shadows[obj] = shadows

        for shadow in shadows:
            if shadow.gid == gid:
                continue
            if not (is_write or shadow.is_write):
                continue  # two reads never race
            if clock.dominates_epoch(shadow.epoch):
                continue  # ordered by happens-before
            self._report(obj, name, shadow, event, is_write)

        shadows.append(
            _Shadow(gid, clock.epoch(gid), is_write, event.step)
        )
        if self.shadow_words is not None:
            # TSan keeps a small fixed shadow per object and evicts old
            # cells; FIFO eviction keeps the simulator deterministic.
            while len(shadows) > self.shadow_words:
                shadows.popleft()

    def _report(self, obj: int, name: str, shadow: _Shadow,
                event: TraceEvent, is_write: bool) -> None:
        count = self._reported_vars.get(obj, 0)
        if count >= self.max_reports_per_var:
            return
        self._reported_vars[obj] = count + 1
        first = Access(
            gid=shadow.gid,
            kind="write" if shadow.is_write else "read",
            step=shadow.step,
            var_name=name,
        )
        second = Access(
            gid=event.gid,
            kind="write" if is_write else "read",
            step=event.step,
            var_name=name,
        )
        self.reports.append(RaceReport(var_id=obj, var_name=name,
                                       first=first, second=second))
