"""The compiled hot path vs its pure-Python twins.

``repro.runtime._hotloop`` exposes one surface with two implementations:
the C extension (MT19937 RNG + the fused per-step drive loop) and the
pure-Python fallbacks that every platform gets (``random.Random`` and the
interpreted loop).  These tests pin the equivalences the determinism
contract rests on (generated seeds and draw sequences for the compiled
RNG are in ``tests/properties/test_rng_properties.py``):

* the compiled ``BatchedRandom`` draws the exact ``random.Random(seed)``
  sequence, the pure path's RNG, over every seed shape;
* a traceless run on the compiled loop takes the same steps as a traced
  run of the same seed on the pure loop (under ``force_pure``);
* a subprocess with ``REPRO_NO_CEXT=1`` — stdlib RNG, pure loop, and the
  default backend falling back to the thread vehicle — produces
  byte-identical digests, statuses, and step counts.

Where the extension didn't build, the compiled-only tests skip and the
subprocess test still passes trivially (pure vs pure).
"""

import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro import run
from tests.workloads import WORKLOADS
from repro.parallel import schedule_digest
from repro.runtime import _hotloop

needs_compiled = pytest.mark.skipif(
    not _hotloop.HAS_COMPILED,
    reason="compiled hot loop unavailable on this host")

DRAW_NS = [3, 10, 1, 7, 2, 5, 2 ** 20, 2 ** 32 - 1, 100, 2 ** 31, 6,
           2 ** 31 - 1]
SEEDS = [0, 1, 7, 123456789, -5, 2 ** 80 + 13]


@needs_compiled
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_randrange_matches_stdlib_and_pure(seed):
    """Without the extension the scheduler draws from ``random.Random``
    itself, so matching the stdlib is matching the pure path."""
    compiled = _hotloop.BatchedRandom(seed)
    stdlib = random.Random(seed)
    for n in DRAW_NS * 40:
        assert compiled.randrange(n) == stdlib.randrange(n)


@needs_compiled
def test_compiled_rng_error_parity():
    """An empty range fails the same way on both paths."""
    for bad in (_hotloop.BatchedRandom(1), random.Random(1)):
        with pytest.raises(ValueError):
            bad.randrange(0)
        with pytest.raises(ValueError):
            bad.randrange(-1)


@needs_compiled
def test_scheduler_uses_the_compiled_rng_by_default():
    from repro.runtime.scheduler import Scheduler

    assert type(Scheduler(seed=1).rng) is _hotloop.BatchedRandom


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traceless_run_matches_traced_run(workload):
    """Compiled loop (traceless) vs pure loop (trace on), in-process.

    A live trace does not select the pure loop, so the traced run takes
    it under ``force_pure``; steps, status, and the main result must
    agree.
    """
    program = WORKLOADS[workload]
    hot = run(program, seed=11, keep_trace=False)
    with _hotloop.force_pure():
        pure = run(program, seed=11, keep_trace=True)
    assert hot.status == pure.status
    assert hot.steps == pure.steps
    assert hot.main_result == pure.main_result


_SUBPROCESS_SCRIPT = textwrap.dedent("""
    import json, sys
    from repro import run
    from tests.workloads import WORKLOADS
    from repro.parallel import schedule_digest
    from repro.runtime import _hotloop
    from repro.runtime.scheduler import backend_fallbacks

    rows = {}
    for name in sorted(WORKLOADS):
        traced = run(WORKLOADS[name], seed=11, keep_trace=True)
        fast = run(WORKLOADS[name], seed=11, keep_trace=False)
        rows[name] = {
            "digest": schedule_digest(traced),
            "status": fast.status,
            "steps": fast.steps,
            "backend": fast.backend,
        }
    print(json.dumps({"compiled": _hotloop.HAS_COMPILED, "rows": rows,
                      "fallbacks": backend_fallbacks()}))
""")


def test_pure_python_subprocess_matches_compiled_process():
    """REPRO_NO_CEXT=1 end to end: pure RNG + pure loop + the thread
    vehicle the default backend falls back to, same bytes as this
    process's runs (tasklet-hosted where the extension loads)."""
    env = dict(os.environ, REPRO_NO_CEXT="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["compiled"] is False
    assert set(payload["fallbacks"]) == {"coroutine->thread"}
    assert payload["fallbacks"]["coroutine->thread"] > 0
    for name, row in payload["rows"].items():
        assert row["backend"] == "thread", name
        traced = run(WORKLOADS[name], seed=11, keep_trace=True)
        fast = run(WORKLOADS[name], seed=11, keep_trace=False)
        assert row["digest"] == schedule_digest(traced), name
        assert row["status"] == fast.status, name
        assert row["steps"] == fast.steps, name


@needs_compiled
def test_pick_log_keeps_the_hot_loop_without_changing_results():
    """A pick-log consumer leaves the run on the compiled loop, which
    writes one record per step; the schedule must not notice."""
    program = WORKLOADS["spin"]
    plain = run(program, seed=4, keep_trace=False)
    drives = []

    class PickReader:
        def attach(self, rt):
            sched = rt.sched
            self.picks = sched.record_picks()
            hot = sched._hot
            assert hot is not None

            def counted(s):
                drives.append(hot(s))
                return drives[-1]
            sched._hot = counted

    reader = PickReader()
    logged = run(program, seed=4, keep_trace=False, observers=[reader])
    assert logged.status == plain.status
    assert logged.steps == plain.steps
    assert drives and None not in drives, \
        "the pick log forced the pure loop"
    assert [step for step, _runnable, _chosen in reader.picks] \
        == list(range(1, logged.steps + 1))
    assert all(0 <= chosen < len(runnable)
               for _step, runnable, chosen in reader.picks)


def test_compiled_field_means_the_drive_loop_was_available():
    """``RunResult.compiled`` is drive-loop availability: only a tasklet
    run can have it, and ``force_pure`` takes it away."""
    from repro.runtime.scheduler import resolve_backend

    program = WORKLOADS["pingpong"]
    if resolve_backend("coroutine") == "tasklet":
        tasklet = run(program, seed=1, backend="coroutine")
        assert tasklet.backend == "tasklet"
        assert tasklet.compiled is _hotloop.HAS_COMPILED
    thread = run(program, seed=1, backend="thread")
    assert thread.compiled is False
    with _hotloop.force_pure():
        pure = run(program, seed=1)
    assert pure.compiled is False


def test_get_fastops_binds_the_drive_loop_and_returns_none():
    """The stub kept for outside callers: no fast ops, but the call still
    binds the compiled drive loop where the extension loaded."""
    assert _hotloop.get_fastops() is None
    if _hotloop.HAS_COMPILED:
        assert _hotloop.get_drive() is _hotloop._c.drive
    else:
        assert _hotloop.get_drive() is None


@needs_compiled
def test_extension_exports_only_the_rng_and_drive_loop():
    """The compiled primitive ops and vector-clock kernels are gone; the
    extension is the RNG, ``bind`` and ``drive``, and the RNG is one
    ``randrange``."""
    public = {name for name in dir(_hotloop._c) if not name.startswith("_")}
    assert public == {"BatchedRandom", "bind", "drive"}
    rng = {name for name in dir(_hotloop.BatchedRandom)
           if not name.startswith("_")}
    assert rng == {"randrange"}


# ---------------------------------------------------------------------------
# Dense vector clocks (repro.detect.vectorclock, used by the detect.hb engine)
# ---------------------------------------------------------------------------


def test_vectorclock_zero_components_are_absent_components():
    from repro.detect.vectorclock import VectorClock

    assert VectorClock({1: 0, 2: 3}) == VectorClock({2: 3})
    assert hash(VectorClock({1: 0, 2: 3})) == hash(VectorClock({2: 3}))
    assert list(VectorClock({3: 1, 1: 2, 2: 0}).items()) == [(1, 2), (3, 1)]


def test_vectorclock_join_and_ordering():
    from repro.detect.vectorclock import VectorClock

    a = VectorClock({1: 2, 2: 1})
    b = VectorClock({2: 4, 5: 1})
    a.join(b)
    assert list(a.items()) == [(1, 2), (2, 4), (5, 1)]
    assert b <= a
    assert not a <= b
    c = VectorClock({1: 1})
    assert c <= a
    assert c.concurrent_with(b)
