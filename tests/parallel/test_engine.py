"""The fork-pool engine itself: worker accounting, ordering, degradation."""

from functools import partial

import pytest

from repro.parallel import effective_jobs, map_units
from repro.parallel import engine as engine_mod


def test_effective_jobs_accounting():
    assert effective_jobs(1, 100) == 1
    assert effective_jobs(0, 100) == 1
    assert effective_jobs(4, 0) == 1
    assert effective_jobs(4, 1) == 1
    if engine_mod._fork_available():
        assert effective_jobs(4, 100) == 4
        assert effective_jobs(8, 3) == 3


def test_nested_sweeps_degrade_to_serial(monkeypatch):
    # The worker-side _IN_WORKER flag (set by the pool initializer) is the
    # "I am a forked worker" signal: a sweep started from inside one must
    # run in-process, never fork recursively.
    monkeypatch.setattr(engine_mod, "_IN_WORKER", True)
    assert effective_jobs(8, 100) == 1
    assert map_units([lambda: 1, lambda: 2], jobs=8) == [1, 2]


def test_parent_between_reuses_is_not_a_worker():
    # Regression: the old engine used the unit-publication slot as the
    # nesting sentinel, which misclassified the parent as "inside a worker"
    # whenever the slot leaked.  The parent must stay a parent before,
    # between, and after pool uses.
    if not engine_mod._fork_available():
        pytest.skip("fork unavailable")
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


def test_unit_slot_reset_after_pool():
    # The closure-fallback path publishes units in the module slot; it must
    # always be cleared afterwards (lambdas force the non-picklable path).
    if not engine_mod._fork_available():
        pytest.skip("fork unavailable")
    captured = []
    original = engine_mod._map_units_fallback

    def spying(units, workers, chunk):
        captured.append(len(units))
        return original(units, workers, chunk)

    engine_mod._map_units_fallback = spying
    try:
        slow = engine_mod.MIN_PARALLEL_COST_S
        engine_mod.MIN_PARALLEL_COST_S = 0.0  # defeat the serial cutover
        values = [10, 11, 12, 13, 14, 15]
        results = map_units([(lambda v=v: v * v) for v in values], jobs=2)
    finally:
        engine_mod._map_units_fallback = original
        engine_mod.MIN_PARALLEL_COST_S = slow
    assert results == [v * v for v in values]
    assert captured, "closure units should take the fallback path"
    assert engine_mod._ACTIVE_UNITS is None


def test_persistent_pool_reused_across_calls():
    if not engine_mod._fork_available():
        pytest.skip("fork unavailable")
    engine_mod.shutdown_pool()
    before = engine_mod.pool_stats()
    slow = engine_mod.MIN_PARALLEL_COST_S
    engine_mod.MIN_PARALLEL_COST_S = 0.0  # force dispatch even for cheap units
    try:
        for _ in range(3):
            assert map_units([partial(_square, i) for i in range(12)],
                             jobs=2) == [i * i for i in range(12)]
    finally:
        engine_mod.MIN_PARALLEL_COST_S = slow
    after = engine_mod.pool_stats()
    assert after["pools_created"] == before["pools_created"] + 1
    assert after["dispatches"] >= before["dispatches"] + 3
    assert after["pool_alive"] == 1
    engine_mod.shutdown_pool()
    assert engine_mod.pool_stats()["pool_alive"] == 0


def _spread(rt):
    """Completion order of three workers — seed-sensitive output."""
    ch = rt.make_chan(3)

    def worker(i):
        ch.send(i)

    for i in range(3):
        rt.go(worker, i)
    return tuple(ch.recv() for _ in range(3))


def test_three_consecutive_sweeps_one_pool_identical_to_serial():
    # The steady-state contract in one test: back-to-back sweeps reuse a
    # single pool (no fork/teardown per call) and every round is
    # byte-identical to the serial sweep.
    if not engine_mod._fork_available():
        pytest.skip("fork unavailable")
    from repro.parallel import sweep_seeds

    engine_mod.shutdown_pool()
    slow = engine_mod.MIN_PARALLEL_COST_S
    engine_mod.MIN_PARALLEL_COST_S = 0.0  # force dispatch for tiny programs
    try:
        serial = sweep_seeds(_spread, range(12), jobs=1)
        before = engine_mod.pool_stats()
        for _ in range(3):
            assert sweep_seeds(_spread, range(12), jobs=4) == serial
    finally:
        engine_mod.MIN_PARALLEL_COST_S = slow
    after = engine_mod.pool_stats()
    assert after["pools_created"] == before["pools_created"] + 1
    assert after["dispatches"] == before["dispatches"] + 3
    assert after["pool_alive"] == 1


def test_adaptive_cutover_stays_serial_for_cheap_units():
    if not engine_mod._fork_available():
        pytest.skip("fork unavailable")
    before = engine_mod.pool_stats()
    assert map_units([partial(_square, i) for i in range(32)],
                     jobs=4) == [i * i for i in range(32)]
    after = engine_mod.pool_stats()
    # Instant units can't pay for fan-out: no new dispatch, cutover counted.
    assert after["dispatches"] == before["dispatches"]
    assert after["serial_cutovers"] == before["serial_cutovers"] + 1
