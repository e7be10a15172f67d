"""jobs=1 vs jobs=N byte-equivalence, for every sweep consumer.

The parallel engine's contract is that parallelism is invisible in the
output: same summaries, same order, same JSON, for the seed sweep, the
kernels' manifestation sweeps, and the chaos harness.  These tests pin
that contract with a worker count above 1 regardless of how many cores the
CI machine has (forking 4 workers on 1 core is slower, never different).
The ``forked`` fixture switches the serial cutover off and checks that
every ``jobs=N`` call really forked, so each comparison crosses a process
boundary.
"""

import concurrent.futures
import json
import time

import pytest

from repro import explore, run
from repro.bugs.registry import get
from repro.inject.harness import ChaosHarness, ChaosTarget, manifestation_rate
from repro.inject.plans import default_suite
from repro.parallel import engine, schedule_digest, sweep_seeds

JOBS = 4

#: A seed-sensitive kernel (manifests on some seeds, not others).
KERNEL = get("blocking-chan-kubernetes-5316")


def _racy(rt):
    """Completion order of three workers — varies with the seed."""
    ch = rt.make_chan(3)

    def worker(i):
        ch.send(i)

    for i in range(3):
        rt.go(worker, i)
    return tuple(ch.recv() for _ in range(3))


@pytest.fixture
def forked(monkeypatch):
    """Call a ``jobs=N`` sweep with the serial cutover off; assert it forked."""
    if not engine._fork_available():
        pytest.skip("fork unavailable")
    monkeypatch.setattr(engine, "MIN_PARALLEL_COST_S", 0.0)
    created = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counting(*args, **kwargs):
        created.append(args)
        return executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)

    def call(sweep, *args, **kwargs):
        before = len(created)
        out = sweep(*args, **kwargs)
        assert len(created) > before, "the jobs=N call never forked"
        return out

    return call


# ----------------------------------------------------------------------
# sweep_seeds / explore
# ----------------------------------------------------------------------


def test_sweep_seeds_byte_identical(forked):
    seeds = range(8)
    serial = sweep_seeds(_racy, seeds, jobs=1)
    parallel = forked(sweep_seeds, _racy, seeds, jobs=JOBS)
    assert serial == parallel
    assert [s.seed for s in serial] == list(seeds)
    assert json.dumps([s.to_dict() for s in serial], sort_keys=True) == \
        json.dumps([s.to_dict() for s in parallel], sort_keys=True)
    # Digests are present and the sweep really explored >1 interleaving.
    assert all(s.trace_digest for s in serial)
    assert len({s.trace_digest for s in serial}) > 1


def test_explore_takes_no_jobs():
    # explore always returns RunResults; sweep_seeds is the parallel sweep.
    with pytest.raises(TypeError):
        explore(_racy, range(2), jobs=JOBS)


def test_schedule_digest_stable_across_runs():
    a = schedule_digest(run(_racy, seed=3))
    b = schedule_digest(run(_racy, seed=3))
    assert a == b
    assert len(a) == 64  # sha256 hex — comparable across processes
    assert schedule_digest(run(_racy, seed=3, keep_trace=False)) is None


# ----------------------------------------------------------------------
# Detector sweeps
# ----------------------------------------------------------------------


def test_kernel_manifestation_seeds_identical(forked):
    seeds = range(16)
    serial = KERNEL.manifestation_seeds(seeds, jobs=1)
    parallel = forked(KERNEL.manifestation_seeds, seeds, jobs=JOBS)
    assert serial == parallel
    # The kernel is seed-sensitive: a strict subset manifests.
    assert 0 < len(serial) < 16


def test_chaos_manifestation_rate_identical(forked):
    seeds = range(10)
    assert manifestation_rate(KERNEL, seeds, jobs=1) == \
        forked(manifestation_rate, KERNEL, seeds, jobs=JOBS)


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------


def test_chaos_harness_sweep_identical(forked):
    target = ChaosTarget.from_kernel(KERNEL)
    plans = list(default_suite())[:2]
    serial = ChaosHarness(seeds=range(8), jobs=1)
    parallel = ChaosHarness(seeds=range(8), jobs=JOBS)
    serial.sweep([target], plans=plans)
    forked(parallel.sweep, [target], plans=plans)
    assert json.dumps(serial.to_dict(), sort_keys=True) == \
        json.dumps(parallel.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Sweep teardown bound
# ----------------------------------------------------------------------


def _stubborn(rt):
    """Leaves one host thread that swallows the teardown Killed signal."""
    ch = rt.make_chan(0)

    def stubborn():
        while True:
            try:
                ch.recv()
            except BaseException:
                continue

    rt.go(stubborn)
    rt.sleep(0.1)
    return True


def test_sweep_applies_short_join_timeout():
    # sweep_seeds shrinks host_join_timeout (in the serial path too) so a
    # pathological seed costs ~1 s of teardown instead of the 5 s default.
    start = time.monotonic()
    with pytest.warns(RuntimeWarning, match="did not unwind"):
        summaries = sweep_seeds(_stubborn, [0], drain=False)
    assert time.monotonic() - start < 4.0
    assert summaries[0].stuck_host_threads
    assert summaries[0].main_result is True
