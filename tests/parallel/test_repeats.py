"""Repeats run again: no layer serves a run from a cache.

Every repeat in the study pipeline is a new seed or a new schedule, so
sweeps, chaos cells, manifestation rates and explorations execute each
unit they are asked for, every time.  The counters here pin that down,
along with the consequence that matters for correctness: two targets
sharing a name never share results.
"""

import pytest

import repro.parallel as parallel_mod
from repro import run
from repro.bugs.registry import get
from repro.detect.systematic import explore_systematic
from repro.inject import plans
from repro.inject.harness import ChaosHarness, ChaosTarget, manifestation_rate
from repro.parallel import memo as counters_mod
from repro.parallel import sweep_seeds

KERNEL = get("blocking-chan-kubernetes-5316")

#: Executions of ``_counting`` — observable with ``jobs=1`` (in-process).
_CALLS = {"n": 0}


def _counting(rt):
    _CALLS["n"] += 1
    ch = rt.make_chan(2)
    rt.go(lambda: ch.send(1))
    rt.go(lambda: ch.send(2))
    return (ch.recv(), ch.recv())


@pytest.fixture(autouse=True)
def _reset_calls():
    _CALLS["n"] = 0
    yield


def _probe_runner(calls, tag, verdict=True):
    def runner(seed, plan, observe=None):
        calls.append((tag, seed, observe))
        return run(lambda rt: verdict, seed=seed, inject=plan,
                   observe=observe)
    return runner


def test_repeat_sweep_runs_every_seed_again():
    first = sweep_seeds(_counting, range(4))
    assert _CALLS["n"] == 4
    second = sweep_seeds(_counting, range(4))
    assert _CALLS["n"] == 8
    assert second == first


def test_overlapping_sweeps_rerun_shared_seeds():
    sweep_seeds(_counting, range(4))
    summaries = sweep_seeds(_counting, range(6))
    assert _CALLS["n"] == 10
    assert [s.seed for s in summaries] == list(range(6))


def test_manifestation_seeds_rerun_on_every_call(monkeypatch):
    units = []
    real = parallel_mod._run_unit

    def counting(program, seed, predicate, run_kwargs):
        units.append(seed)
        return real(program, seed, predicate, run_kwargs)

    monkeypatch.setattr(parallel_mod, "_run_unit", counting)
    first = KERNEL.manifestation_seeds(range(5))
    second = KERNEL.manifestation_seeds(range(5))
    assert units == list(range(5)) * 2
    assert first == second


def test_manifestation_rate_reruns_every_call():
    seeds_run = []

    class Stub:
        @staticmethod
        def run_buggy(seed, inject=None):
            seeds_run.append(seed)
            return run(lambda rt: seed % 2 == 0, seed=seed, inject=inject)

        @staticmethod
        def manifested(result):
            return bool(result.main_result)

    assert manifestation_rate(Stub, range(4)) == 0.5
    assert manifestation_rate(Stub, range(6)) == 0.5
    assert seeds_run == list(range(4)) + list(range(6))


def test_chaos_cells_rerun_across_harnesses():
    calls = []
    target = ChaosTarget(name="probe", runner=_probe_runner(calls, "a"),
                         ok=lambda r: True)
    cells = [ChaosHarness(seeds=range(3)).run_cell(target, None)
             for _ in range(2)]
    assert [seed for _, seed, _ in calls] == [0, 1, 2] * 2
    assert cells[0].to_dict() == cells[1].to_dict()


def test_same_named_targets_keep_their_own_runners():
    # Two targets differing only in what their runner does: each cell
    # reflects its own runs, never the other's.
    calls = []
    harness = ChaosHarness(seeds=(0, 1))
    healthy = ChaosTarget(name="probe",
                          runner=_probe_runner(calls, "healthy", True),
                          ok=lambda r: bool(r.main_result))
    broken = ChaosTarget(name="probe",
                         runner=_probe_runner(calls, "broken", False),
                         ok=lambda r: bool(r.main_result))
    assert harness.run_cell(healthy, None).failures == []
    assert harness.run_cell(broken, None).failures == [0, 1]
    assert [tag for tag, _, _ in calls] == ["healthy"] * 2 + ["broken"] * 2


def test_same_named_targets_each_run_their_observers():
    calls = []
    harness = ChaosHarness(seeds=(0,), observe=True)
    for tag in ("first", "second"):
        target = ChaosTarget(name="probe", runner=_probe_runner(calls, tag),
                             ok=lambda r: True)
        cell = harness.run_cell(target, None)
        assert "switches" in cell.metrics
    assert calls == [("first", 0, True), ("second", 0, True)]


def test_same_named_plans_each_run():
    # Same name and fault count, different restart delay.
    fast = plans.crash_restart(target="nope", delay=0.1)
    slow = plans.crash_restart(target="nope", delay=0.9)
    assert repr(fast) == repr(slow)
    calls = []
    harness = ChaosHarness(seeds=(0,))
    target = ChaosTarget(name="probe", runner=_probe_runner(calls, "a"),
                         ok=lambda r: True)
    for plan in (fast, slow, fast):
        harness.run_cell(target, plan)
    assert len(calls) == 3


def test_repeat_exploration_runs_every_schedule():
    first = explore_systematic(_counting, max_runs=50)
    after_first = _CALLS["n"]
    second = explore_systematic(_counting, max_runs=50)
    assert after_first == first.runs > 1
    assert _CALLS["n"] - after_first == second.runs == first.runs
    assert first.statuses == second.statuses
    assert first.runs_saved == second.runs_saved == 0


def test_run_cache_counters_read_zero():
    # The counters a benchmark worker reads stay at zero whatever runs.
    sweep_seeds(_counting, range(3))
    sweep_seeds(_counting, range(3))
    KERNEL.manifestation_seeds(range(3))
    harness = ChaosHarness(seeds=(0, 1))
    target = ChaosTarget(name="probe", runner=_probe_runner([], "a"),
                         ok=lambda r: True)
    harness.run_cell(target, None)
    harness.run_cell(target, None)
    explore_systematic(_counting, max_runs=10)
    assert counters_mod.memo.stats() == {"entries": 0, "hits": 0,
                                         "misses": 0}
