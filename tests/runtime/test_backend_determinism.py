"""Cross-backend schedule-digest parity: the determinism contract.

The coroutine-core scheduler promises that an identical ``(seed, plan)``
produces byte-identical schedules no matter which vehicle hosts the
goroutines (OS threads or the tasklet extension) and
no matter whether a sweep ran in-process or across worker processes.
This suite pins that contract over the benchmark workloads and a full
repro.net crash-recovery scenario; ``test_hotloop.py`` pins the
compiled-vs-pure half of the same contract.
"""

from functools import partial

import pytest

from repro import run
from repro.bench import WORKLOADS
from repro.parallel import schedule_digest, sweep_seeds
from repro.runtime.scheduler import resolve_backend


def _available_backends():
    return ["thread", "coroutine"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_bench_workloads_digest_parity_across_backends(workload, seed):
    program = WORKLOADS[workload]
    reference = run(program, seed=seed, keep_trace=True, backend="thread")
    ref_digest = schedule_digest(reference)
    assert ref_digest is not None
    for backend in _available_backends():
        result = run(program, seed=seed, keep_trace=True, backend=backend)
        assert result.status == reference.status, backend
        assert result.steps == reference.steps, backend
        assert schedule_digest(result) == ref_digest, backend


@pytest.mark.parametrize("backend", ["thread", "coroutine"])
def test_sweep_jobs_parity_per_backend(backend):
    """jobs=1 vs jobs=N: identical summaries, whatever hosts the steps."""
    program = WORKLOADS["pingpong"]
    seeds = list(range(8))
    serial = sweep_seeds(program, seeds, jobs=1, keep_trace=True,
                         backend=backend)
    parallel = sweep_seeds(program, seeds, jobs=2, keep_trace=True,
                           backend=backend)
    assert serial == parallel
    expected = resolve_backend(backend)
    assert all(s.backend == expected for s in serial)


def test_sweep_digests_agree_across_backends():
    """The same sweep on thread vs coroutine: same interleavings per seed.

    Whole summaries can't be compared across backends — they honestly
    record which vehicle ran — so compare the fields the schedule
    determines: status, steps, and the trace digest.
    """
    program = WORKLOADS["mutex"]
    seeds = list(range(6))
    by_backend = {
        backend: sweep_seeds(program, seeds, jobs=1, keep_trace=True,
                             backend=backend)
        for backend in _available_backends()
    }
    reference = by_backend["thread"]
    for backend, summaries in by_backend.items():
        for ref, got in zip(reference, summaries):
            assert got.status == ref.status, backend
            assert got.steps == ref.steps, backend
            assert got.trace_digest == ref.trace_digest, backend


def _corpus_kernels():
    from repro.bugs import registry

    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_every_corpus_kernel_digest_parity_thread_vs_coroutine(kernel):
    """All 54+ bug kernels: same schedule, same verdict, any vehicle."""
    for variant in (kernel.buggy, kernel.fixed):
        kwargs = dict(kernel.run_kwargs)
        kwargs["keep_trace"] = True
        thread = run(variant, seed=3, backend="thread", **kwargs)
        coro = run(variant, seed=3, backend="coroutine", **kwargs)
        assert coro.status == thread.status
        assert coro.steps == thread.steps
        assert coro.main_result == thread.main_result
        assert schedule_digest(coro) == schedule_digest(thread)


def _app_scenarios():
    from repro.inject import scenarios

    return sorted(scenarios.all_scenarios(), key=lambda row: row[0])


@pytest.mark.parametrize("scenario", _app_scenarios(),
                         ids=lambda row: row[0])
def test_miniapp_scenarios_digest_parity_thread_vs_coroutine(scenario):
    """The six mini-app workloads replay identically on every vehicle."""
    _, program, base_kwargs = scenario
    kwargs = dict(base_kwargs)
    kwargs["keep_trace"] = True
    thread = run(program, seed=1, backend="thread", **kwargs)
    coro = run(program, seed=1, backend="coroutine", **kwargs)
    assert coro.status == thread.status
    assert coro.steps == thread.steps
    assert schedule_digest(coro) == schedule_digest(thread)


def test_net_recovery_scenario_digest_parity_across_backends():
    """A crashing, electing, durable cluster replays identically everywhere.

    The injector disables the compiled hot loop, timers fire, nodes crash
    and restart under supervision — the heaviest machinery the simulator
    has, and the schedule still may not depend on the vehicle.
    """
    from repro.inject import plans
    from repro.inject.scenarios import net_etcd_recovery_scenario

    program = partial(net_etcd_recovery_scenario, size=3)
    results = {
        backend: run(program, seed=2, keep_trace=True, backend=backend,
                     inject=plans.crash_restart(delay=0.3),
                     max_steps=600_000)
        for backend in _available_backends()
    }
    reference = results["thread"]
    ref_digest = schedule_digest(reference)
    assert ref_digest is not None
    for backend, result in results.items():
        assert result.status == reference.status, backend
        assert result.steps == reference.steps, backend
        assert result.main_result == reference.main_result, backend
        assert len(result.injected) == len(reference.injected), backend
        assert schedule_digest(result) == ref_digest, backend
