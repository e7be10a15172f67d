"""Systematic schedule exploration (bounded model checking)."""

import pytest

from repro import run
from repro.bugs.registry import get
from repro.detect.systematic import (
    Exploration,
    ScriptedChoices,
    explore_systematic,
    replay_schedule,
    verify_no_manifestation,
)
from repro.predict import confirm_predictions, predict
from repro.runtime.runtime import RunResult


def _racy(rt):
    v = rt.shared("v", 0)

    def worker():
        v.add(1)

    rt.go(worker)
    rt.go(worker)
    rt.sleep(0.5)
    return v.peek() != 2  # truthy == lost update observed


def test_scripted_choices_replay_and_default():
    choices = ScriptedChoices([2, 0])
    assert choices.randrange(5) == 2
    assert choices.randrange(3) == 0
    assert choices.randrange(4) == 0   # beyond the prefix: default 0
    assert choices.log == [(5, 2), (3, 0), (4, 0)]


def test_scripted_choice_clamped_to_range():
    choices = ScriptedChoices([9])
    assert choices.randrange(3) == 2   # clamped to n-1


def test_finds_lost_update_schedule():
    exploration = explore_systematic(
        _racy, stop_on=lambda r: bool(r.main_result), max_runs=500
    )
    assert exploration.found
    assert exploration.runs < 50       # directed, not lucky
    assert "counterexample" in str(exploration)


def test_counterexample_replays_deterministically():
    exploration = explore_systematic(
        _racy, stop_on=lambda r: bool(r.main_result), max_runs=500
    )
    replay = run(_racy, rng=ScriptedChoices(exploration.counterexample))
    assert bool(replay.main_result) is True


def test_exhaustive_verification_of_correct_program():
    def correct(rt):
        counter = rt.atomic_int(0)

        def worker():
            counter.add(1)

        rt.go(worker)
        rt.go(worker)
        rt.sleep(0.1)
        return counter.load() != 2

    exploration = explore_systematic(
        correct, stop_on=lambda r: bool(r.main_result), max_runs=5000
    )
    assert not exploration.found
    assert exploration.exhausted       # a real guarantee, not sampling
    assert exploration.statuses == {"ok": exploration.runs}
    assert "property holds" in str(exploration)


def test_budget_bound_respected():
    exploration = explore_systematic(_racy, max_runs=7)
    assert exploration.runs <= 7
    assert not exploration.exhausted


def test_rare_kernel_found_quickly():
    """etcd#6371 manifests on ~1/8 random seeds; the explorer walks
    straight to it."""
    kernel = get("nonblocking-wg-etcd-6371")
    exploration = explore_systematic(
        kernel.buggy, stop_on=kernel.manifested, max_runs=400
    )
    assert exploration.found
    assert exploration.runs < 100


def test_verify_no_manifestation_on_fixed_kernel():
    kernel = get("nonblocking-trad-etcd-check-then-act")
    exploration = verify_no_manifestation(kernel, "fixed", max_runs=400)
    assert not exploration.found


def test_statuses_summarize_coverage():
    exploration = explore_systematic(_racy, max_runs=30)
    assert exploration.statuses.get("ok", 0) == exploration.runs


def test_counterexample_result_is_the_runs_own_result():
    kernel = get("nonblocking-chan-grpc-send-on-closed")
    exploration = explore_systematic(kernel.buggy, stop_on=kernel.manifested,
                                     **kernel.run_kwargs)
    assert exploration.found and exploration.runs > 1
    result = exploration.counterexample_result
    assert isinstance(result, RunResult)
    assert result.trace is not None
    assert kernel.manifested(result)
    replayed = replay_schedule(kernel.buggy, exploration.counterexample,
                               **kernel.run_kwargs)
    assert kernel.manifested(replayed)


def test_exploration_takes_no_jobs():
    with pytest.raises(TypeError):
        explore_systematic(_racy, jobs=2)
    report = predict(run(_racy))
    with pytest.raises(TypeError):
        confirm_predictions(report, _racy, jobs=2)
