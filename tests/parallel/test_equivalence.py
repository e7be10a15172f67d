"""jobs=1 vs jobs=N byte-equivalence, for every sweep consumer.

The parallel engine's contract is that parallelism is invisible in the
output: same summaries, same order, same JSON, for the seed sweep, the
explorer, the kernels' manifestation sweeps, and the chaos harness.  These tests pin
that contract with a worker count above 1 regardless of how many cores the
CI machine has (forking 4 workers on 1 core is slower, never different).
"""

import json
import time

import pytest

from repro import explore, run
from repro.bugs.registry import all_kernels, get
from repro.detect.systematic import explore_systematic, replay_schedule
from repro.inject.harness import ChaosHarness, ChaosTarget, manifestation_rate
from repro.inject.plans import default_suite
from repro.parallel import RunSummary, schedule_digest, sweep_seeds
from repro.parallel import engine as engine_mod
from repro.parallel.engine import pool_stats
from repro.runtime.runtime import RunResult

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


def _tiny(rt):
    """Small enough for systematic exploration to exhaust."""
    ch = rt.make_chan(1)
    rt.go(lambda: ch.send(1))
    return ch.recv()


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


def _coverage(exploration):
    return (exploration.exhausted, exploration.runs, exploration.pruned,
            exploration.divergences, exploration.max_depth,
            exploration.statuses)


def test_systematic_exploration_coverage_identical():
    serial = explore_systematic(_tiny, max_runs=4000)
    parallel = explore_systematic(_tiny, max_runs=4000, jobs=JOBS)
    # Exhaustion visits exactly the same bounded tree regardless of the
    # visiting order, so the totals agree.
    assert serial.exhausted
    assert _coverage(serial) == _coverage(parallel)


def test_corpus_exploration_coverage_identical():
    """Every corpus variant whose tree exhausts within 80 runs covers the
    same tree, with the same pruning, at any ``jobs``."""
    exhausted = []
    for kernel in all_kernels():
        for variant in ("buggy", "fixed"):
            program = getattr(kernel, variant)
            serial = explore_systematic(program, max_runs=80,
                                        **kernel.run_kwargs)
            if not serial.exhausted:
                continue
            parallel = explore_systematic(program, max_runs=80, jobs=JOBS,
                                          **kernel.run_kwargs)
            name = f"{kernel.meta.kernel_id}[{variant}]"
            assert _coverage(serial) == _coverage(parallel), name
            exhausted.append(name)
    # More than half of the 108 variants exhaust (59 when written).
    assert len(exhausted) > 54


def _explore_to_counterexample(kernel, jobs):
    before = pool_stats()
    exploration = explore_systematic(kernel.buggy, stop_on=kernel.manifested,
                                     jobs=jobs, **kernel.run_kwargs)
    after = pool_stats()
    assert exploration.found and exploration.runs > 1
    replayed = replay_schedule(kernel.buggy, exploration.counterexample,
                               **kernel.run_kwargs)
    assert kernel.manifested(replayed)
    return exploration, {key: after[key] - before[key]
                         for key in ("dispatches", "serial_cutovers")}


def test_counterexample_result_is_full_only_in_process(monkeypatch):
    """A hit that ran in-process gives the run's own ``RunResult``: at
    ``jobs=1``, and at ``jobs=2`` when the serial cutover keeps every
    batch in the parent.  A hit dispatched to a worker gives a
    ``RunSummary``.  Every schedule replays to a manifesting run."""
    kernel = get("nonblocking-chan-grpc-send-on-closed")
    serial, counts = _explore_to_counterexample(kernel, jobs=1)
    assert isinstance(serial.counterexample_result, RunResult)
    assert serial.counterexample_result.trace is not None
    assert kernel.manifested(serial.counterexample_result)
    assert counts == {"dispatches": 0, "serial_cutovers": 0}

    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_COST_S", float("inf"))
    cutover, counts = _explore_to_counterexample(kernel, jobs=2)
    assert isinstance(cutover.counterexample_result, RunResult)
    assert kernel.manifested(cutover.counterexample_result)
    assert counts["dispatches"] == 0 and counts["serial_cutovers"] > 0

    # No probe and no cost floor: every batch of two goes to the pool.
    monkeypatch.setattr(engine_mod, "MIN_PARALLEL_COST_S", 0.0)
    monkeypatch.setattr(engine_mod, "PROBE_UNITS", 0)
    dispatched, counts = _explore_to_counterexample(kernel, jobs=2)
    assert isinstance(dispatched.counterexample_result, RunSummary)
    assert counts["dispatches"] > 0 and counts["serial_cutovers"] == 0


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
