"""ChaosHarness: targets, cells, the sweep grid, and the scorecard."""

from repro.inject import (
    ChaosHarness,
    ChaosTarget,
    kernel_targets,
    manifestation_rate,
    plans,
)
from repro.bugs import registry


def _ok_program(rt):
    ch = rt.make_chan(1, name="ok-ch")
    rt.go(lambda: ch.send("done"), name="worker")
    return ch.recv() == "done"


def _fragile_program(rt):
    """Deadlocks whenever its helper is killed."""
    ch = rt.make_chan(0, name="fragile")

    def helper():
        rt.sleep(1.0)
        ch.send(1)

    rt.go(helper, name="helper")
    return ch.recv() == 1


def test_target_from_program_runs_and_scores():
    target = ChaosTarget.from_program("toy", _ok_program)
    result = target.runner(0, None)
    assert target.ok(result)
    assert target.kind == "app"


def test_run_cell_counts_failures_per_seed():
    harness = ChaosHarness(seeds=range(4))
    target = ChaosTarget.from_program("fragile", _fragile_program)
    clean = harness.run_cell(target, None)
    assert clean.clean and clean.runs == 4 and clean.plan == "baseline"

    broken = harness.run_cell(
        target, plans.kill_goroutine("helper", at_step=2))
    assert not broken.clean
    assert broken.failures == [0, 1, 2, 3]
    assert broken.failure_rate == 1.0
    assert broken.faults_fired == 4
    assert broken.statuses["deadlock"] == 4


def test_sweep_grid_shape_and_to_dict():
    harness = ChaosHarness(seeds=range(2))
    targets = [ChaosTarget.from_program("toy", _ok_program)]
    cells = harness.sweep(targets, plans=[plans.wakeup_storm()])
    assert [cell.plan for cell in cells] == ["baseline", "wakeup-storm"]

    data = harness.to_dict(cells)
    assert data["seeds"] == [0, 1]
    assert data["clean"] is True
    assert {cell["plan"] for cell in data["cells"]} == {"baseline",
                                                        "wakeup-storm"}


def test_scorecard_renders_verdicts():
    harness = ChaosHarness(seeds=range(2))
    harness.sweep([ChaosTarget.from_program("toy", _ok_program)],
                  plans=[plans.clock_skew()])
    card = harness.scorecard()
    assert "Chaos resilience scorecard" in card
    assert "CLEAN" in card and "toy" in card


def test_kernel_target_ok_means_not_manifested():
    kernel = registry.get("blocking-chan-docker-missing-close")
    [target] = kernel_targets(["blocking-chan-docker-missing-close"],
                              variant="buggy")
    result = target.runner(0, None)
    assert target.ok(result) == (not kernel.manifested(result))
    assert target.kind == "kernel-buggy"

    fixed_target = ChaosTarget.from_kernel(kernel, variant="fixed")
    assert fixed_target.ok(fixed_target.runner(0, None))


def test_manifestation_rate_bounds():
    kernel = registry.get("blocking-chan-docker-missing-close")
    rate = manifestation_rate(kernel, range(4))
    assert rate == 1.0  # manifests on every seed
    fixed_rate = manifestation_rate(kernel, range(4), variant="fixed")
    assert fixed_rate == 0.0


def test_targets_keep_no_trace_unless_asked():
    """A cell reads no trace, so targets run untraced by default; a
    caller whose ``ok`` reads the trace asks for it."""
    assert ChaosTarget.from_program("toy", _ok_program).runner(0, None) \
        .trace is None
    traced = ChaosTarget.from_program("toy", _ok_program, keep_trace=True)
    assert traced.runner(0, None).trace is not None
    [kernel_target] = kernel_targets(["blocking-chan-docker-missing-close"])
    assert kernel_target.runner(0, None).trace is None


def test_observed_cells_do_not_depend_on_the_kept_trace():
    """The observer keeps the records it folds itself: an untraced
    observed sweep scores exactly as a traced one."""
    dumps = []
    for keep_trace in (False, True):
        harness = ChaosHarness(seeds=range(3), observe=True)
        harness.sweep([ChaosTarget.from_program(
            "fragile", _fragile_program, keep_trace=keep_trace)],
            plans=[plans.wakeup_storm(),
                   plans.kill_goroutine("helper", at_step=2)])
        dumps.append(harness.to_dict())
    assert dumps[0] == dumps[1]
    assert all(cell["metrics"]["switches"] > 0 for cell in dumps[0]["cells"])
