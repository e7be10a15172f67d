"""The compiled hot path vs its pure-Python twins.

``repro.runtime._hotloop`` exposes one surface with two implementations:
the C extension (MT19937 RNG + the fused per-step drive loop) and the
pure-Python fallbacks that every platform gets.  These tests pin the
equivalences the determinism contract rests on:

* the compiled ``BatchedRandom`` draws the exact ``random.Random(seed)``
  sequence the pure one draws, over every seed shape;
* a traceless run (compiled loop eligible) takes the same steps as a
  traced run of the same seed (pure loop, trace forces it);
* a subprocess with ``REPRO_NO_CEXT=1`` — pure RNG, pure loop, and the
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
from repro.bench import WORKLOADS
from repro.parallel import schedule_digest
from repro.runtime import _hotloop
from repro.runtime.fastrand import BatchedRandom as PyBatchedRandom

needs_compiled = pytest.mark.skipif(
    not _hotloop.HAS_COMPILED,
    reason="compiled hot loop unavailable on this host")

DRAW_NS = [3, 10, 1, 7, 2, 5, 2 ** 20, 2 ** 33 + 7, 100, 2 ** 32, 6,
           2 ** 31 - 1]
SEEDS = [0, 1, 7, 123456789, -5, 2 ** 80 + 13]


@needs_compiled
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_randrange_matches_stdlib_and_pure(seed):
    compiled = _hotloop.BatchedRandom(seed)
    pure = PyBatchedRandom(seed)
    stdlib = random.Random(seed)
    for n in DRAW_NS * 40:
        expected = stdlib.randrange(n)
        assert compiled.randrange(n) == expected
        assert pure.randrange(n) == expected


@needs_compiled
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_getrandbits_matches_stdlib(seed):
    compiled = _hotloop.BatchedRandom(seed)
    stdlib = random.Random(seed)
    for bits in [1, 7, 32, 33, 64, 65, 128, 311] * 20:
        assert compiled.getrandbits(bits) == stdlib.getrandbits(bits)


@needs_compiled
def test_compiled_rng_error_parity():
    compiled = _hotloop.BatchedRandom(1)
    pure = PyBatchedRandom(1)
    for bad in (compiled, pure):
        with pytest.raises(ValueError):
            bad.randrange(0)
        with pytest.raises(ValueError):
            bad.getrandbits(-1)


@needs_compiled
def test_scheduler_uses_the_compiled_rng_by_default():
    from repro.runtime.scheduler import Scheduler

    assert type(Scheduler(seed=1).rng) is _hotloop.BatchedRandom


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traceless_run_matches_traced_run(workload):
    """Compiled loop (traceless) vs pure loop (trace on), in-process.

    A live trace is exactly what disqualifies the compiled loop, so the
    pair exercises both loops on the same seed; steps, status, and the
    main result must agree.
    """
    program = WORKLOADS[workload]
    hot = run(program, seed=11, keep_trace=False)
    pure = run(program, seed=11, keep_trace=True)
    assert hot.status == pure.status
    assert hot.steps == pure.steps
    assert hot.main_result == pure.main_result


_SUBPROCESS_SCRIPT = textwrap.dedent("""
    import json, sys
    from repro import run
    from repro.bench import WORKLOADS
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
def test_hot_loop_disabled_by_observers_without_changing_results():
    """Hooks force the pure loop; the schedule must not notice."""
    program = WORKLOADS["spin"]
    plain = run(program, seed=4, keep_trace=False)
    seen = []

    class StepHook:
        def attach(self, rt):
            rt.sched.on_step = lambda step, depth, gid: seen.append(gid)

    hooked = run(program, seed=4, keep_trace=False, observers=[StepHook()])
    assert hooked.status == plain.status
    assert hooked.steps == plain.steps
    assert len(seen) == hooked.steps


# ---------------------------------------------------------------------------
# Array-backed vector clocks (shared by detect.race and predict.hb)
# ---------------------------------------------------------------------------


def test_vectorclock_import_locations_are_one_class():
    from repro.detect.vectorclock import VectorClock as DetectVC
    from repro.runtime._hotloop import VectorClock as HotVC

    assert DetectVC is HotVC


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
    assert a.dominates_epoch(b.epoch(5))
    assert not b.dominates_epoch(a.epoch(1))
