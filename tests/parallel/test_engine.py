"""The fork-pool engine itself: worker accounting, ordering, degradation."""

import os
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.parallel import effective_jobs, map_units, sweep_seeds
from repro.parallel import engine as engine_mod
from repro.runtime._hotloop import force_pure

needs_fork = pytest.mark.skipif(not engine_mod._fork_available(),
                                reason="fork unavailable")


def test_effective_jobs_accounting():
    assert effective_jobs(1, 100) == 1
    assert effective_jobs(0, 100) == 1
    assert effective_jobs(4, 0) == 1
    assert effective_jobs(4, 1) == 1
    if engine_mod._fork_available():
        assert effective_jobs(4, 100) == 4
        assert effective_jobs(8, 3) == 3


def test_nested_sweeps_degrade_to_serial(monkeypatch):
    # The worker-side _IN_WORKER flag (set by the executor initializer) is
    # the "I am a forked worker" signal: a sweep started from inside one
    # must run in-process, never fork recursively.
    monkeypatch.setattr(engine_mod, "_IN_WORKER", True)
    assert effective_jobs(8, 100) == 1
    assert map_units([lambda: 1, lambda: 2], jobs=8) == [1, 2]


@needs_fork
def test_parent_between_reuses_is_not_a_worker(monkeypatch):
    # Regression: the old engine used the unit-publication slot as the
    # nesting sentinel, which misclassified the parent as "inside a worker"
    # whenever the slot leaked.  The parent must stay a parent before,
    # between, and after dispatches.
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_COST_S", 0.0)
    assert not engine_mod._IN_WORKER
    map_units([partial(_square, i) for i in range(8)], jobs=2)
    assert not engine_mod._IN_WORKER
    assert effective_jobs(4, 100) == 4


def _square(i):
    return i * i


@pytest.mark.parametrize("jobs", [1, 4])
def test_map_units_preserves_submission_order(jobs):
    units = [partial(_square, i) for i in range(20)]
    assert map_units(units, jobs=jobs) == [i * i for i in range(20)]


def _boom():
    raise ValueError("unit failure")


@pytest.mark.parametrize("jobs", [1, 2])
def test_unit_exceptions_propagate(jobs):
    with pytest.raises(ValueError, match="unit failure"):
        map_units([_boom, _boom], jobs=jobs)


@needs_fork
def test_worker_exceptions_propagate(monkeypatch):
    # The probe units succeed in the parent; the failing unit runs in a
    # worker and its exception reaches the caller.
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_COST_S", 0.0)
    units = [partial(_square, i) for i in range(8)] + [_boom]
    with pytest.raises(ValueError, match="unit failure"):
        map_units(units, jobs=2)
    assert engine_mod._ACTIVE_UNITS is None


@needs_fork
def test_unit_slot_reset_after_dispatch(monkeypatch):
    # A dispatching call publishes its units in the module slot for the
    # forked workers; the slot must be cleared before the call returns.
    # Closures dispatch too: only unit indices cross the process boundary.
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_COST_S", 0.0)
    values = list(range(10, 22))
    results = map_units([(lambda v=v: (v * v, os.getpid())) for v in values],
                        jobs=2)
    assert [square for square, _pid in results] == [v * v for v in values]
    assert {pid for _square, pid in results} - {os.getpid()}, \
        "with the cutover defeated, the units past the probe run in workers"
    assert engine_mod._ACTIVE_UNITS is None


def _spread(rt):
    """Completion order of three workers — seed-sensitive output."""
    ch = rt.make_chan(3)

    def worker(i):
        ch.send(i)

    for i in range(3):
        rt.go(worker, i)
    return tuple(ch.recv() for _ in range(3))


@needs_fork
def test_three_consecutive_sweeps_identical_to_serial(monkeypatch):
    # Back-to-back dispatching sweeps each fork their own workers, and
    # every round is byte-identical to the serial sweep.
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_COST_S", 0.0)
    serial = sweep_seeds(_spread, range(12), jobs=1)
    for _ in range(3):
        assert sweep_seeds(_spread, range(12), jobs=4) == serial


@needs_fork
def test_adaptive_cutover_stays_serial_for_cheap_units():
    # Instant units can't pay for fan-out: the whole call runs in the parent.
    assert map_units([os.getpid] * 32, jobs=4) == [os.getpid()] * 32


@needs_fork
def test_dispatch_sees_the_parent_state_of_its_own_call(monkeypatch):
    # Workers fork at each dispatch, so a sweep after an earlier dispatch
    # runs with the parent's current settings: under force_pure() every
    # run reports compiled=False, as in the serial sweep.
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_COST_S", 0.0)
    sweep_seeds(_spread, range(8), jobs=2)
    with force_pure():
        serial = sweep_seeds(_spread, range(8), jobs=1)
        parallel = sweep_seeds(_spread, range(8), jobs=2)
    assert [s.to_dict() for s in parallel] == [s.to_dict() for s in serial]
    assert {s.compiled for s in parallel} == {False}


def _run_script(script: str) -> str:
    # Runs ``script`` as ``__main__`` of a fresh interpreter; the timeout
    # turns a hung dispatch into a test failure.
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@needs_fork
def test_main_program_defined_after_a_dispatch_sweeps():
    out = _run_script("""
        from repro.parallel import engine, sweep_seeds

        engine.MIN_PARALLEL_COST_S = 0.0

        def first(rt):
            return rt.now()

        sweep_seeds(first, range(8), jobs=2)

        def later(rt):
            ch = rt.make_chan(3)
            for i in range(3):
                rt.go(ch.send, i)
            return tuple(ch.recv() for _ in range(3))

        assert sweep_seeds(later, range(8), jobs=2) == \\
            sweep_seeds(later, range(8), jobs=1)
        print("ok")
    """)
    assert out.split() == ["ok"]


@needs_fork
def test_dead_worker_raises_and_the_next_dispatch_works():
    out = _run_script("""
        import os
        from concurrent.futures.process import BrokenProcessPool
        from repro.parallel import engine, map_units

        engine.MIN_PARALLEL_COST_S = 0.0

        def die_in_worker():
            if engine._IN_WORKER:
                os._exit(3)
            return 0

        try:
            map_units([die_in_worker] * 8, jobs=2)
        except BrokenProcessPool:
            print("broken")
        pids = map_units([os.getpid] * 8, jobs=2)
        assert set(pids) - {os.getpid()}
        print("ok")
    """)
    assert out.split() == ["broken", "ok"]
