"""Direct checks of the nine figure reproductions' specific mechanics."""

import pytest

from repro import run
from repro.bugs import registry
from repro.detect import BuiltinDeadlockDetector, GoroutineLeakDetector


def _kernel(figure: str):
    return registry.figures()[figure]


def test_fig1_child_leaks_blocked_on_send():
    kernel = _kernel("1")
    seed = kernel.manifestation_seeds(range(30))[0]
    result = kernel.run_buggy(seed=seed)
    assert result.main_result == "timeout"  # the parent took the time.After case
    assert any(g.block_reason.startswith("chan.send") for g in result.leaked)


def test_fig1_buffered_fix_keeps_timeout_behavior_without_leak():
    kernel = _kernel("1")
    statuses = {kernel.run_fixed(seed=s).status for s in range(30)}
    assert statuses == {"ok"}
    results = {kernel.run_fixed(seed=s).main_result for s in range(30)}
    assert "timeout" in results  # the timeout path still happens; it just
    assert "response" in results  # no longer strands the child


def test_fig5_wait_in_loop_blocks_main_while_app_lives():
    kernel = _kernel("5")
    result = kernel.run_buggy(seed=0)
    assert result.status == "timeout"  # main stuck, heartbeat still running
    assert BuiltinDeadlockDetector().classify(result) is False
    assert GoroutineLeakDetector().classify(result) is True
    fixed = kernel.run_fixed(seed=0)
    assert fixed.status == "ok"
    assert fixed.main_result == 3  # all three plugins disabled


def test_fig6_overwritten_context_leaks_exactly_one_watcher():
    kernel = _kernel("6")
    result = kernel.run_buggy(seed=0)
    assert result.status == "leak"
    watchers = [g for g in result.leaked if g.name == "context.watcher"]
    assert len(watchers) == 1
    assert kernel.run_fixed(seed=0).status == "ok"


def test_fig7_two_goroutines_stuck_on_chan_and_lock():
    kernel = _kernel("7")
    result = kernel.run_buggy(seed=0)
    assert result.status == "leak"
    reasons = sorted(g.block_reason.split(":")[0] for g in result.leaked)
    assert reasons == ["chan.send", "mutex.lock"]
    fixed = kernel.run_fixed(seed=0)
    assert fixed.status == "ok"


def test_fig8_all_goroutines_may_see_last_i():
    kernel = _kernel("8")
    result = kernel.run_buggy(seed=0)
    assert kernel.manifested(result)


def test_fig8_static_detector_flags_the_buggy_shape():
    """The verbatim Figure 8 shape (and its fix) as seen by the static
    capture checker — the Section 7 prototype's target."""
    from repro.static.capture import check_source

    figure8 = (
        "def prog(rt):\n"
        "    for i in range(17, 22):\n"
        "        def handler():\n"
        "            api_version = 'v1.%d' % i\n"
        "            serve(api_version)\n"
        "        rt.go(handler)\n"
    )
    findings = check_source(figure8, "figure8.py")
    assert [f.obj for f in findings] == ["i"]

    figure8_fixed = (
        "def prog(rt):\n"
        "    for i in range(17, 22):\n"
        "        def handler(i=i):\n"
        "            serve('v1.%d' % i)\n"
        "        rt.go(handler)\n"
    )
    assert check_source(figure8_fixed, "figure8_fixed.py") == []


def test_fig9_wait_can_return_before_add(seeds):
    kernel = _kernel("9")
    assert kernel.manifestation_seeds(range(40))
    for seed in range(20):
        assert not kernel.manifested(kernel.run_fixed(seed=seed))


def test_fig10_second_closer_panics(seeds):
    kernel = _kernel("10")
    hits = kernel.manifestation_seeds(range(40))
    assert hits
    result = kernel.run_buggy(seed=hits[0])
    assert "close of closed channel" in str(result.panic_value)


def test_fig11_extra_f_execution_after_stop():
    kernel = _kernel("11")
    rate = len(kernel.manifestation_seeds(range(40))) / 40
    assert 0.2 < rate < 0.8  # Go picks randomly between the ready cases


def test_fig12_premature_return_before_ctx_done():
    kernel = _kernel("12")
    assert kernel.manifested(kernel.run_buggy(seed=0))
    fixed_result = kernel.run_fixed(seed=0)
    assert not kernel.manifested(fixed_result)
