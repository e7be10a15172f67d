"""jobs=1 vs jobs=N byte-equivalence, for every sweep consumer.

The parallel engine's contract is that parallelism is invisible in the
output: same summaries, same order, same JSON, for the seed sweep, the
kernels' manifestation sweeps, and the chaos harness.  These tests pin
that contract with a worker count above 1 regardless of how many cores the
CI machine has (forking 4 workers on 1 core is slower, never different).
"""

import json
import time

import pytest

from repro import explore, run
from repro.bugs.registry import get
from repro.inject.harness import ChaosHarness, ChaosTarget, manifestation_rate
from repro.inject.plans import default_suite
from repro.parallel import schedule_digest, sweep_seeds

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


# ----------------------------------------------------------------------
# sweep_seeds / explore
# ----------------------------------------------------------------------


def test_sweep_seeds_byte_identical():
    seeds = range(8)
    serial = sweep_seeds(_racy, seeds, jobs=1)
    parallel = sweep_seeds(_racy, seeds, jobs=JOBS)
    assert serial == parallel
    assert [s.seed for s in serial] == list(seeds)
    assert json.dumps([s.to_dict() for s in serial], sort_keys=True) == \
        json.dumps([s.to_dict() for s in parallel], sort_keys=True)
    # Digests are present and the sweep really explored >1 interleaving.
    assert all(s.trace_digest for s in serial)
    assert len({s.trace_digest for s in serial}) > 1


def test_explore_summaries_identical():
    assert sweep_seeds(_racy, range(8), jobs=1) == \
        explore(_racy, range(8), jobs=JOBS)


def test_schedule_digest_stable_across_runs():
    a = schedule_digest(run(_racy, seed=3))
    b = schedule_digest(run(_racy, seed=3))
    assert a == b
    assert len(a) == 64  # sha256 hex — comparable across processes
    assert schedule_digest(run(_racy, seed=3, keep_trace=False)) is None


# ----------------------------------------------------------------------
# Detector sweeps
# ----------------------------------------------------------------------


def test_kernel_manifestation_seeds_identical():
    seeds = range(16)
    serial = KERNEL.manifestation_seeds(seeds, jobs=1)
    parallel = KERNEL.manifestation_seeds(seeds, jobs=JOBS)
    assert serial == parallel
    # The kernel is seed-sensitive: a strict subset manifests.
    assert 0 < len(serial) < 16


def test_chaos_manifestation_rate_identical():
    seeds = range(10)
    assert manifestation_rate(KERNEL, seeds, jobs=1) == \
        manifestation_rate(KERNEL, seeds, jobs=JOBS)


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------


def test_chaos_harness_sweep_identical():
    target = ChaosTarget.from_kernel(KERNEL)
    plans = list(default_suite())[:2]
    serial = ChaosHarness(seeds=range(4), jobs=1)
    parallel = ChaosHarness(seeds=range(4), jobs=JOBS)
    serial.sweep([target], plans=plans)
    parallel.sweep([target], plans=plans)
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
