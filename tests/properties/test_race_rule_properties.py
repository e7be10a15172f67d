"""Property-based tests: the race rule equals a brute-force all-pairs check.

Generated event streams over one to four goroutines mix reads and writes
of three shared variables with Mutex and RWMutex lock/unlock and atomic
operations.  Each stream is stamped by the happens-before engine in both
orders, and :class:`~repro.detect.race.RaceRule` must report exactly
what an oracle kept here reports: for each access in stream order, every
earlier access of the variable within the last ``window`` (oldest
first) that is on another goroutine, conflicting, unordered both ways
(``Stamp.concurrent_with``) and not serialized by a common lock with an
exclusive holder, until the variable's report cap.  The live
:class:`~repro.detect.race.RaceDetector`, fed the same stream, must
equal the oracle over the strict stamps without locksets.
"""

from hypothesis import given, settings, strategies as st

from repro.detect.hb import HBEngine
from repro.detect.race import RaceDetector, RaceRule
from repro.detect.report import Access, RaceReport
from repro.runtime.trace import EventKind, TraceEvent

SETTINGS = dict(max_examples=300, deadline=None)

VARS = (1, 2, 3)
MUTEX, RWMUTEX = 10, 11
ATOMICS = (20, 21)
#: A whole critical section: the acquire, the release and the lock.
SECTIONS = {"lock": (EventKind.MU_LOCK, EventKind.MU_UNLOCK, MUTEX),
            "rlock": (EventKind.RW_RLOCK, EventKind.RW_RUNLOCK, RWMUTEX),
            "wlock": (EventKind.RW_LOCK, EventKind.RW_UNLOCK, RWMUTEX)}

ops = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.sampled_from(("read", "write", "atomic", "lock", "unlock",
                         "rlock", "runlock", "wlock", "wunlock",
                         "locked", "rlocked", "wlocked")),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=40,
)
windows = st.sampled_from((1, 2, 4, None))
caps = st.integers(min_value=1, max_value=3)


def build_stream(drawn):
    """Turn drawn ``(gid, op, arg)`` triples into a well-formed stream.

    Goroutine 1 forks each other goroutine just before its first event.
    ``arg`` picks the variable (its parity the access kind, for the
    ``*locked`` ops, which wrap one access in a whole critical section).
    A lock operation the primitive's state does not allow (a lock taken
    while held, an unlock by a goroutine that holds nothing) is dropped.
    """
    events = []
    started = {1}
    mutex_owner = None
    writer, readers = None, []

    def emit(gid, kind, obj, info=None):
        events.append(TraceEvent(len(events) + 1, 0.0, gid, kind, obj, info))

    for gid, op, arg in drawn:
        if gid not in started:
            started.add(gid)
            emit(1, EventKind.GO_CREATE, gid)
        var = VARS[arg % len(VARS)]
        if op in ("read", "write"):
            kind = EventKind.MEM_READ if op == "read" else EventKind.MEM_WRITE
            emit(gid, kind, var, {"name": f"v{var}"})
        elif op.endswith("locked"):
            op = op[:-2]
            free = {"lock": mutex_owner is None,
                    "rlock": writer is None and gid not in readers,
                    "wlock": writer is None and not readers}[op]
            if free:
                take, drop, obj = SECTIONS[op]
                kind = EventKind.MEM_WRITE if arg % 2 else EventKind.MEM_READ
                emit(gid, take, obj)
                emit(gid, kind, var, {"name": f"v{var}"})
                emit(gid, drop, obj)
        elif op == "atomic":
            emit(gid, EventKind.ATOMIC_OP, ATOMICS[arg % len(ATOMICS)])
        elif op == "lock" and mutex_owner is None:
            mutex_owner = gid
            emit(gid, EventKind.MU_LOCK, MUTEX)
        elif op == "unlock" and mutex_owner == gid:
            mutex_owner = None
            emit(gid, EventKind.MU_UNLOCK, MUTEX)
        elif op == "rlock" and writer is None and gid not in readers:
            readers.append(gid)
            emit(gid, EventKind.RW_RLOCK, RWMUTEX)
        elif op == "runlock" and gid in readers:
            readers.remove(gid)
            emit(gid, EventKind.RW_RUNLOCK, RWMUTEX)
        elif op == "wlock" and writer is None and not readers:
            writer = gid
            emit(gid, EventKind.RW_LOCK, RWMUTEX)
        elif op == "wunlock" and writer == gid:
            writer = None
            emit(gid, EventKind.RW_UNLOCK, RWMUTEX)
    return events


def stamp(events, mode):
    engine = HBEngine(mode=mode)
    return [engine.step(event) for event in events]


def serialized(a, b):
    """Both hold some lock, at least one of them exclusively."""
    return any(obj_a == obj_b and "x" in (mode_a, mode_b)
               for obj_a, mode_a in a for obj_b, mode_b in b)


def oracle(stamps, window, cap, use_locks=True):
    accesses = [s for s in stamps
                if s.event.kind in (EventKind.MEM_READ, EventKind.MEM_WRITE)]
    reports, found = [], {}
    for j, second in enumerate(accesses):
        var = second.event.obj
        earlier = [s for s in accesses[:j] if s.event.obj == var]
        if window is not None:
            earlier = earlier[-window:]
        for first in earlier:
            if found.get(var, 0) >= cap:
                break
            if EventKind.MEM_WRITE not in (first.event.kind,
                                           second.event.kind):
                continue
            if not first.concurrent_with(second):
                continue
            if use_locks and serialized(first.locks, second.locks):
                continue
            found[var] = found.get(var, 0) + 1
            name = f"v{var}"
            reports.append(RaceReport(var, name, _access(first, name),
                                      _access(second, name)))
    return reports


def _access(s, name):
    kind = "write" if s.event.kind == EventKind.MEM_WRITE else "read"
    return Access(s.event.gid, kind, s.event.step, name)


def rule_reports(stamps, window, cap):
    rule = RaceRule(window, cap)
    for s in stamps:
        if s.event.kind in (EventKind.MEM_READ, EventKind.MEM_WRITE):
            rule.check(s.event, s.clock, s.locks)
    return rule.reports


@settings(**SETTINGS)
@given(drawn=ops, window=windows, cap=caps)
def test_rule_matches_all_pairs_oracle_in_both_orders(drawn, window, cap):
    events = build_stream(drawn)
    for mode in ("strict", "weak"):
        stamps = stamp(events, mode)
        assert rule_reports(stamps, window, cap) == \
            oracle(stamps, window, cap), mode


@settings(**SETTINGS)
@given(drawn=ops, window=windows, cap=caps)
def test_detector_matches_oracle_over_strict_stamps(drawn, window, cap):
    events = build_stream(drawn)
    det = RaceDetector(shadow_words=window, max_reports_per_var=cap)
    for event in events:
        det.on_event(event)
    assert det.reports == oracle(stamp(events, "strict"), window, cap,
                                 use_locks=False)
