"""The happens-before data race rule, and its two callers.

A reimplementation of the detector the paper evaluates in Section 6.3: Go's
``-race`` mode, which "uses the same happen-before algorithm as
ThreadSanitizer" and keeps **up to four shadow words per memory object**.
:class:`RaceRule` states the race rule once.  It sees each access of one
run in stream order, walks the variable's earlier accesses oldest first,
and reports a pair unless

* both come from the same goroutine,
* both are reads,
* the clock at the later access already covers the earlier one (the pair
  is ordered), or
* both hold a lock and at least one holds it exclusively.

Its two callers differ only in what they feed it:

* :class:`RaceDetector` feeds it the live clock of the strict
  :class:`~repro.detect.hb.HBEngine` (the engine the offline predictors
  replay) and keeps at most ``shadow_words`` recent accesses per
  :class:`~repro.sync.shared.SharedVar`: older ones are evicted, so long
  histories can hide races — the paper's third miss cause in Table 12.
  Pass ``shadow_words=None`` for the unlimited-history ablation.  It
  passes no locks: in the strict order a common exclusive lock already
  orders the pair.
* :func:`predict_races` feeds it stamps with their locksets, over the
  whole history.  The weak order drops the lock edges, and the lockset
  check restores mutual exclusion: either order, never overlap.

Usage::

    det = RaceDetector()
    result = run(program, seed=3, observers=[det])
    for report in det.reports: print(report)
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..runtime.trace import EventKind, Trace, TraceEvent
from .hb import STRICT_EDGES, HBEngine, Stamp, common_exclusive_lock
from .report import Access, RaceReport
from .vectorclock import VectorClock

#: The kinds :meth:`RaceRule.check` is fed.
ACCESS_KINDS = frozenset((EventKind.MEM_READ, EventKind.MEM_WRITE))

Locks = Tuple[Tuple[int, str], ...]
#: One remembered access: (gid, own clock component, is write, step, locks).
_Past = Tuple[int, int, bool, int, Locks]
_KIND = {False: "read", True: "write"}


class RaceRule:
    """The race rule over one run's accesses, fed one access at a time.

    ``window`` bounds how many earlier accesses per variable are kept
    (FIFO, as TSan's shadow cells; ``None``: all of them), and
    ``max_reports_per_var`` how many races one variable reports.
    """

    def __init__(self, window: Optional[int] = None,
                 max_reports_per_var: int = 1):
        self.window = window
        self.max_reports_per_var = max_reports_per_var
        self.reports: List[RaceReport] = []
        self._past: Dict[int, Deque[_Past]] = {}
        self._reported: Dict[int, int] = {}

    def check(self, event: TraceEvent, clock: VectorClock,
              locks: Locks = ()) -> None:
        """Check one access against the variable's earlier ones, then
        remember it.  ``clock`` is the accessor's clock at the access and
        ``locks`` the ``(lock, mode)`` pairs it holds."""
        obj = int(event.obj)  # type: ignore[arg-type]
        found = self._reported.get(obj, 0)
        if found >= self.max_reports_per_var:
            return  # nothing more this variable can report
        gid = event.gid
        is_write = event.kind == EventKind.MEM_WRITE
        past = self._past.get(obj)
        if past is None:
            past = self._past[obj] = deque(maxlen=self.window)
        for first_gid, first_count, first_write, first_step, first_locks \
                in past:
            if first_gid == gid or not (is_write or first_write):
                continue
            if clock.get(first_gid) >= first_count:
                continue  # ordered by happens-before
            if first_locks and locks and \
                    common_exclusive_lock(first_locks, locks) is not None:
                continue
            name = str(event.info.get("name", f"var#{obj}"))
            self.reports.append(RaceReport(
                var_id=obj, var_name=name,
                first=Access(first_gid, _KIND[first_write], first_step, name),
                second=Access(gid, _KIND[is_write], event.step, name)))
            found += 1
            self._reported[obj] = found
            if found >= self.max_reports_per_var:
                return
        past.append((gid, clock.get(gid), is_write, event.step, locks))


class RaceDetector:
    """Vector-clock data race detector (observer for :func:`repro.run`).

    The strict :class:`~repro.detect.hb.HBEngine` orders the run's
    events; a :class:`RaceRule` with a ``shadow_words`` window checks its
    accesses.  Both are built once per run (``attach`` rebuilds used ones).
    """

    name = "go-race-detector"

    def __init__(self, shadow_words: Optional[int] = 4,
                 max_reports_per_var: int = 1):
        self.shadow_words = shadow_words
        self.max_reports_per_var = max_reports_per_var
        self._reset()
        #: The attached run's trace and its length at ``attach``, until
        #: ``finish`` replays the records emitted since.
        self._trace: Optional[Trace] = None
        self._start = 0

    def _reset(self) -> None:
        self._engine = HBEngine()
        self._rule = RaceRule(self.shadow_words, self.max_reports_per_var)

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------

    def attach(self, rt) -> None:
        if self._engine._clocks:  # every event that leaves state makes one
            self._reset()
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
    def reports(self) -> List[RaceReport]:
        return self._rule.reports

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
        # The rule reads the accessor's clock before the engine applies
        # the access; the engine's own tick then makes later accesses by
        # the same goroutine distinguishable.
        if event.kind in ACCESS_KINDS:
            self._rule.check(event, self._engine.clock(event.gid))
        self._engine.observe(event)


def predict_races(stamps: Iterable[Stamp],
                  max_reports_per_var: int = 1) -> List[RaceReport]:
    """Predicted races over the stamps of one trace, at most
    ``max_reports_per_var`` per variable, ordered by variable.

    With :func:`~repro.detect.hb.weak_stamps` these are the races some
    feasible reordering of the run makes concurrent; with
    :func:`~repro.detect.hb.strict_stamps` they are exactly what an
    unlimited-history :class:`RaceDetector` reports on the same run.
    """
    rule = RaceRule(None, max_reports_per_var)
    for stamp in stamps:
        if stamp.event.kind in ACCESS_KINDS:
            rule.check(stamp.event, stamp.clock, stamp.locks)
    return sorted(rule.reports, key=attrgetter("var_id"))
