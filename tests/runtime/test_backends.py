"""Goroutine host backends: resolution and cross-backend schedule
equivalence.

The backend only changes *how* goroutines are hosted (continuations vs OS
threads); every scheduling decision comes from the same seeded RNG either
way, so all backends must produce bit-identical schedule fingerprints.
"""

import warnings

import pytest

from repro import run
from repro.parallel import schedule_digest
from repro.runtime import scheduler as scheduler_mod
from repro.runtime.scheduler import BACKENDS, backend_fallbacks, resolve_backend
from tests.memprobe import has_proc_status, sanitized, ten_senders, vm_growth
from tests.runtime.test_compiled_parity import HEAVY_WORKLOADS

MODULE = "tests.runtime.test_backends"


def _program(rt):
    ch = rt.make_chan(1)

    def worker(i):
        ch.send(i)

    for i in range(3):
        rt.go(worker, i)
    return tuple(ch.recv() for _ in range(3))


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown goroutine backend"):
        run(_program, backend="fiber")


def test_coroutine_is_the_default_and_resolves_to_a_vehicle():
    result = run(_program, seed=3)
    assert result.backend in ("tasklet", "thread")
    assert result.backend == resolve_backend("coroutine")
    # The thread vehicle is reachable by name and reports itself.
    assert run(_program, seed=3, backend="thread").backend == "thread"


def test_backend_surfaced_on_result_and_summary():
    from repro.parallel import summarize_result

    result = run(_program, seed=1, backend="thread")
    assert result.backend == "thread"
    assert result.to_dict()["backend"] == "thread"
    assert summarize_result(result).backend == "thread"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_backends_produce_identical_schedules(seed):
    results = {b: run(_program, seed=seed, backend=b) for b in BACKENDS}
    reference = results["thread"]
    for backend, result in results.items():
        assert result.status == reference.status, backend
        assert result.steps == reference.steps, backend
        assert result.main_result == reference.main_result, backend
        assert schedule_digest(result) == schedule_digest(reference), backend


def _no_tasklet(monkeypatch):
    """Make the tasklet extension look unloadable, with fresh counts."""
    monkeypatch.setattr(scheduler_mod, "has_tasklet", lambda: False)
    monkeypatch.setattr(scheduler_mod, "_fallback_counts", {})


def test_coroutine_falls_back_to_thread_and_counts_it(monkeypatch):
    _no_tasklet(monkeypatch)
    assert resolve_backend("coroutine") == "thread"
    assert backend_fallbacks() == {"coroutine->thread": 1}
    assert run(_program, seed=2).backend == "thread"
    assert backend_fallbacks() == {"coroutine->thread": 2}


def test_coroutine_fallback_is_silent(monkeypatch):
    _no_tasklet(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(_program, seed=0)
        run(_program, seed=1)
    assert not caught


def test_thread_request_counts_no_fallback(monkeypatch):
    _no_tasklet(monkeypatch)
    assert resolve_backend("thread") == "thread"
    run(_program, seed=0, backend="thread")
    assert backend_fallbacks() == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fallback_schedules_match_the_default(monkeypatch, seed):
    default = run(_program, seed=seed)
    _no_tasklet(monkeypatch)
    fallback = run(_program, seed=seed)
    assert fallback.backend == "thread"
    assert fallback.steps == default.steps
    assert fallback.main_result == default.main_result
    assert schedule_digest(fallback) == schedule_digest(default)


def test_backends_tuple_names_every_vehicle():
    assert BACKENDS == ("coroutine", "thread")
    for name in BACKENDS:
        assert resolve_backend(name) in ("thread", "tasklet")
    # The concrete vehicle name is reported, never accepted.
    with pytest.raises(ValueError, match="unknown goroutine backend"):
        resolve_backend("tasklet")


@pytest.mark.parametrize("workload", sorted(HEAVY_WORKLOADS))
def test_heavy_workload_schedules_match_across_vehicles(workload):
    program = HEAVY_WORKLOADS[workload]
    digests = {b: schedule_digest(run(program, seed=4, backend=b))
               for b in BACKENDS}
    assert digests["coroutine"] == digests["thread"]


def ten_goroutines_tasklet(seed):
    run(ten_senders, seed=seed, backend="coroutine")


def ten_goroutines_thread(seed):
    run(ten_senders, seed=seed, backend="thread")


@pytest.mark.skipif(
    resolve_backend("coroutine") != "tasklet" or not has_proc_status()
    or sanitized(),
    reason="the tasklet vehicle (_ctasklet) or /proc is unavailable here, "
           "or a sanitizer's allocator holds freed memory resident")
def test_tasklet_runs_hold_no_more_memory_than_thread_runs():
    """A goroutine's continuation gives its stack and frame memory back
    when it ends, as an OS thread does: over the same runs, the tasklet
    vehicle grows the process's resident set no more than threads do."""
    runs = 400
    growth = {vehicle: vm_growth(f"{MODULE}:ten_goroutines_{vehicle}",
                                 runs, warmup=100)["VmRSS"]
              for vehicle in ("tasklet", "thread")}
    assert growth["tasklet"] <= growth["thread"] + 256 * runs, growth
