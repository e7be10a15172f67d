"""Predicted data races: conflicting accesses unordered by the weak HB.

The dynamic detector (Section 6.3's ``-race``) only flags a race when the
recorded schedule brings two conflicting accesses close enough together
(4 shadow words) and leaves them unordered.  The predictive version asks
a weaker question of the *same single run*: could any feasible
reordering make the accesses concurrent?

Two accesses are reported when they

* touch the same :class:`~repro.sync.shared.SharedVar` from different
  goroutines, at least one writing,
* are unordered by the weak happens-before closure (fork, channel,
  WaitGroup, Once, atomic edges kept; lock and cond scheduling edges
  dropped — see :mod:`repro.detect.hb`), and
* hold no common lock with at least one exclusive holder (mutual
  exclusion permits either order but never overlap, so a common lock is
  the one relaxation the reordering cannot break).

Unlike the dynamic detector there is no shadow-word window: the whole
access history participates, so races the paper's Table 12 blames on
history eviction are still predicted.
"""

from __future__ import annotations

from typing import Dict, List

from ..detect.report import Access, RaceReport
from ..runtime.trace import EventKind
from ..detect.hb import Stamp
from .model import SyncTrace


def predict_races(trace: SyncTrace, stamps: List[Stamp],
                  max_reports_per_var: int = 1) -> List[RaceReport]:
    """All predicted races, at most ``max_reports_per_var`` per variable.

    ``stamps`` must come from the *weak* engine
    (:func:`repro.detect.hb.weak_stamps`) over the same ``trace``.
    """
    by_var: Dict[int, List[Stamp]] = {}
    names: Dict[int, str] = {}
    for stamp in stamps:
        e = stamp.event
        if e.kind not in (EventKind.MEM_READ, EventKind.MEM_WRITE):
            continue
        obj = int(e.obj)  # type: ignore[arg-type]
        by_var.setdefault(obj, []).append(stamp)
        name = e.info.get("name")
        if name is not None:
            names[obj] = str(name)

    reports: List[RaceReport] = []
    for obj in sorted(by_var):
        accesses = by_var[obj]
        name = names.get(obj, f"var#{obj}")
        found = 0
        for j in range(len(accesses)):
            if found >= max_reports_per_var:
                break
            second = accesses[j]
            for i in range(j):
                first = accesses[i]
                if first.event.gid == second.event.gid:
                    continue
                if not (_is_write(first) or _is_write(second)):
                    continue
                if not first.concurrent_with(second):
                    continue
                if first.common_exclusive_lock(second) is not None:
                    continue
                reports.append(RaceReport(
                    var_id=obj, var_name=name,
                    first=_access(first), second=_access(second),
                ))
                found += 1
                if found >= max_reports_per_var:
                    break
    return reports


def _is_write(stamp: Stamp) -> bool:
    return stamp.event.kind == EventKind.MEM_WRITE


def _access(stamp: Stamp) -> Access:
    e = stamp.event
    return Access(
        gid=e.gid,
        kind="write" if e.kind == EventKind.MEM_WRITE else "read",
        step=e.step,
        var_name=str(e.info.get("name", f"var#{e.obj}")),
    )
