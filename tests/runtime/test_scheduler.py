"""Scheduler behavior: statuses, goroutine lifecycle, step limits."""

import random

import pytest

from repro import GoPanic, run
from repro.parallel import schedule_digest
from repro.runtime import _hotloop
from repro.runtime import scheduler as scheduler_module
from repro.runtime.goroutine import GState


def test_empty_main_completes():
    result = run(lambda rt: 42)
    assert result.status == "ok"
    assert result.main_result == 42
    assert result.leak_count == 0


def test_goroutines_run_and_finish():
    def main(rt):
        done = rt.atomic_int(0)
        for _ in range(5):
            rt.go(lambda: done.add(1))
        rt.sleep(0.1)
        return done.load()

    result = run(main, seed=1)
    assert result.status == "ok"
    assert result.main_result == 5
    assert len(result.goroutines) == 6  # main + 5


def test_global_deadlock_reported():
    def main(rt):
        rt.make_chan().recv()

    result = run(main)
    assert result.status == "deadlock"
    assert result.deadlock is not None
    assert "deadlock" in str(result.deadlock)
    assert any("chan.recv" in desc for desc in result.deadlock.blocked)


def test_leaked_goroutine_reported():
    def main(rt):
        ch = rt.make_chan()
        rt.go(lambda: ch.recv())
        rt.sleep(0.1)

    result = run(main)
    assert result.status == "leak"
    assert result.leak_count == 1
    assert result.leaked[0].block_reason.startswith("chan.recv")


def test_panic_aborts_run():
    def main(rt):
        rt.panic("boom")

    result = run(main)
    assert result.status == "panic"
    assert isinstance(result.panic_value, GoPanic)
    assert result.panic_value.value == "boom"


def test_background_panic_aborts_whole_program():
    def main(rt):
        rt.go(lambda: rt.panic("child blew up"))
        rt.sleep(10.0)
        return "never"

    result = run(main)
    assert result.status == "panic"
    assert result.main_result is None


def test_host_exception_is_treated_as_panic():
    def main(rt):
        raise ValueError("host bug")

    result = run(main)
    assert result.status == "panic"
    assert isinstance(result.panic_value, ValueError)


def test_external_wait_yields_hang_not_deadlock():
    def main(rt):
        rt.external_wait("network read")

    result = run(main)
    assert result.status == "hang"
    assert result.deadlock is None


def test_external_wait_with_duration_completes():
    def main(rt):
        rt.external_wait("disk io", duration=0.5)
        return rt.now()

    result = run(main)
    assert result.status == "ok"
    assert result.main_result == pytest.approx(0.5)


def test_time_limit_yields_timeout_status():
    def main(rt):
        stuck = rt.make_chan()

        def heartbeat():
            for _ in range(100):
                rt.sleep(1.0)

        rt.go(heartbeat)
        stuck.recv()  # blocks forever while heartbeat keeps the app alive

    result = run(main, time_limit=5.0)
    assert result.status == "timeout"
    # The stuck main is a leak suspect; the sleeper is not.
    reasons = [g.block_reason for g in result.leaked]
    assert reasons and all(r.startswith("chan.recv") for r in reasons)


def test_sleep_advances_virtual_clock_only():
    def main(rt):
        rt.sleep(3600.0)
        return rt.now()

    result = run(main)
    assert result.main_result == pytest.approx(3600.0)
    assert result.end_time >= 3600.0


def test_step_budget_catches_livelock():
    def main(rt):
        while True:
            rt.gosched()

    result = run(main, max_steps=2000)
    assert result.status == "steps"


def test_abandoned_runnable_goroutines_are_not_leaks():
    def main(rt):
        def spinner():
            while True:
                rt.gosched()

        rt.go(spinner)
        return "done"

    result = run(main, drain_budget=500)
    assert result.status == "ok"
    assert result.abandoned and not result.leaked


def test_num_goroutine_and_gid():
    def main(rt):
        assert rt.gid() == 1
        before = rt.num_goroutine()
        ch = rt.make_chan()
        rt.go(lambda: ch.recv())
        rt.gosched()
        during = rt.num_goroutine()
        ch.send(None)
        return (before, during)

    result = run(main)
    assert result.main_result == (1, 2)


def test_goroutine_names_and_sites_recorded():
    def main(rt):
        rt.go(lambda: None, name="worker-a")
        rt.sleep(0.01)

    result = run(main)
    names = [g.name for g in result.goroutines]
    assert "worker-a" in names
    worker = next(g for g in result.goroutines if g.name == "worker-a")
    assert worker.creation_site and ":" in worker.creation_site
    assert worker.anonymous  # a lambda


def test_drain_lets_sleepers_finish():
    def main(rt):
        flag = rt.shared("flag", False)

        def late():
            rt.sleep(5.0)
            flag.store(True)

        rt.go(late)
        return flag  # main exits immediately

    result = run(main)
    assert result.status == "ok"
    assert result.main_result.peek() is True


# ---------------------------------------------------------------------------
# The seed is checked once, for both scheduling RNGs
# ---------------------------------------------------------------------------


#: The compiled MT19937 (``random.Random`` itself without the extension)
#: and ``random.Random``: the two classes a run's scheduling RNG can be.
_RNG_CLASSES = [_hotloop.BatchedRandom, random.Random]


def _picky(rt):
    """Four workers on one buffered channel: a pick at most steps."""
    ch = rt.make_chan(2)

    def worker(i):
        for j in range(3):
            ch.send((i, j))

    for i in range(4):
        rt.go(worker, i)
    return [ch.recv() for _ in range(12)]


@pytest.mark.parametrize("rng_class", _RNG_CLASSES,
                         ids=["batched", "random"])
@pytest.mark.parametrize("seed", [None, "a", 1.5], ids=repr)
def test_non_integer_seed_raises_on_both_rngs(monkeypatch, rng_class, seed):
    monkeypatch.setattr(scheduler_module, "BatchedRandom", rng_class)
    with pytest.raises(TypeError):
        run(_picky, seed=seed)


@pytest.mark.parametrize("seed", [True, -3, 2**70], ids=repr)
def test_integer_seeds_draw_one_schedule_on_both_rngs(monkeypatch, seed):
    runs = []
    for rng_class in _RNG_CLASSES:
        monkeypatch.setattr(scheduler_module, "BatchedRandom", rng_class)
        result = run(_picky, seed=seed)
        runs.append((result.status, result.steps, result.main_result,
                     schedule_digest(result)))
    assert runs[0] == runs[1]
    assert runs[0][0] == "ok"
