"""Property-based tests: timer parks agree on every loop.

``Runtime.sleep`` and ``Runtime.external_wait(what, d)`` park through
``Scheduler.park_timer``: its records, a wake entry holding the goroutine,
and a yield.  The compiled drive loop wakes the sleeper in C; the pure
loop and the thread vehicle wake it through ``Scheduler.fire_timers``.
Generated programs park on durations drawn from the edges of the float
line (zero, negative zero, negative values, the smallest subnormal, a
nanosecond, 1e300, NaN and both infinities) and must give the same
records, status, steps and end time on all three.  A NaN or positive
infinite duration ends the run ``panic`` with a ``ValueError`` (the
deadline check of ``VirtualClock.call_at``); negative infinity is a
negative duration, which arms no later deadline than now.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro import run
from repro.runtime._hotloop import force_pure

SETTINGS = dict(max_examples=40, deadline=None)

EDGES = (0.0, -0.0, 5e-324, 1e-9, 1e300, math.nan, math.inf, -math.inf)

DURATIONS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(max_value=-5e-324, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0),
)

#: One park: ``("sleep", d)`` or ``("wait", d)`` (an external wait on a
#: named resource).
PARKS = st.tuples(st.sampled_from(("sleep", "wait")), DURATIONS)

#: Up to three goroutines, each parking a few times, and main's own parks.
PROGRAMS = st.tuples(
    st.lists(st.lists(PARKS, min_size=1, max_size=4), min_size=1,
             max_size=3),
    st.lists(PARKS, max_size=3),
)


def _park(rt, how, duration):
    if how == "sleep":
        rt.sleep(duration)
    else:
        rt.external_wait("disk", duration)


def _program(rt, spec):
    workers, own = spec
    done = rt.make_chan(len(workers))

    def worker(i, parks):
        for how, duration in parks:
            _park(rt, how, duration)
        done.send(i)

    for i, parks in enumerate(workers):
        rt.go(worker, i, parks)
    for how, duration in own:
        _park(rt, how, duration)
    return sorted(done.recv() for _ in workers)


def _run(spec, loop):
    if loop == "pure":
        with force_pure():
            return run(_program, args=(spec,), seed=3)
    if loop == "thread":
        return run(_program, args=(spec,), seed=3, backend="thread")
    return run(_program, args=(spec,), seed=3)


def _outcome(result):
    # ``repr`` keeps a NaN duration comparable (NaN != NaN).
    return (repr(result.trace.records()), result.status, result.steps,
            repr(result.end_time))


@settings(**SETTINGS)
@given(PROGRAMS)
@example(([[("sleep", math.nan)], [("sleep", 1.0)]], []))
@example(([[("wait", math.inf)]], [("sleep", 1.0)]))
@example(([[("sleep", -math.inf), ("wait", -math.inf)]], [("wait", 0.0)]))
@example(([[("sleep", 1e300), ("sleep", 1e-9)]], [("wait", 5e-324)]))
def test_timer_parks_agree_on_every_loop(spec):
    compiled = _run(spec, "compiled")
    for loop in ("pure", "thread"):
        assert _outcome(_run(spec, loop)) == _outcome(compiled), loop
    workers, own = spec
    durations = [d for parks in workers for _how, d in parks]
    durations += [d for _how, d in own]
    rejected = any(math.isnan(d) or d == math.inf for d in durations)
    if rejected:
        assert compiled.status == "panic"
        assert isinstance(compiled.panic_value, ValueError)
    else:
        assert compiled.status == "ok"
        assert compiled.main_result == list(range(len(workers)))
