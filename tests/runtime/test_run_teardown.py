"""A finished run frees itself.

``repro.run`` cuts the back edges that tie a run into reference cycles
once the observers have finished, so dropping the ``RunResult`` frees the
scheduler, runtime, goroutines and trace by reference counting.  Each case
here runs with the cyclic collector off and ``DEBUG_SAVEALL`` on, drops
its result, collects, and asserts that no run object was left as cyclic
garbage.

Only a cycle that a kernel's own body builds may be exempted, and it must
be named in ``EXEMPT``; the check then asserts that every run object in the
garbage is reachable from that cycle, so a second cycle cannot hide behind
it.  A cycle in ``runtime``, ``chan``, ``sync``, ``stdlib``, ``net``,
``detect`` or ``inject`` is a bug, never an exemption.
"""

from __future__ import annotations

import gc
import weakref
from collections import deque
from typing import Callable, Dict, List

import pytest

from repro import run
from repro.bugs import registry
from repro.detect import ChannelRuleChecker, LockOrderDetector, RaceDetector
from repro.inject import plans
from repro.inject.scenarios import all_scenarios, recovery_scenarios
from repro.net.demo import loadgen_summary
from repro.net.load import echo_load_program
from repro.runtime.goroutine import Goroutine, GState
from repro.runtime.runtime import Runtime
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import Trace, TraceEvent

BACKENDS = ("coroutine", "thread")
RUN_TYPES = (Scheduler, Runtime, Trace, TraceEvent, Goroutine)

#: kernel id -> (name of the class its body defines per run, why).
EXEMPT: Dict[str, tuple] = {
    "blocking-chan-cockroach-nil-channel": (
        "GossipClient",
        "the body defines class GossipClient on every run; a class is "
        "always a cycle (type <-> its __dict__ descriptors and __mro__), "
        "and its __init__ closes over rt",
    ),
}

KERNELS = [(k.meta.kernel_id, variant)
           for k in registry.all_kernels() for variant in ("buggy", "fixed")]


def _cyclic_garbage(case: Callable[[], None]) -> List[object]:
    """Everything a collection finds unreachable among the objects
    ``case()`` made, run with the collector off and saving all it finds.

    Freezing the objects that existed before keeps the collection to the
    case's own objects, however many the test process already holds.
    """
    gc.disable()
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    del gc.garbage[:]
    try:
        case()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.unfreeze()
        gc.enable()


def _reachable(roots: List[object], within: List[object]) -> set:
    ids = {id(o) for o in within}
    seen = {id(r) for r in roots}
    queue = deque(roots)
    while queue:
        for ref in gc.get_referents(queue.popleft()):
            if id(ref) in ids and id(ref) not in seen:
                seen.add(id(ref))
                queue.append(ref)
    return seen


def _assert_freed(case: Callable[[], None], exempt_class: str = "") -> None:
    garbage = _cyclic_garbage(case)
    leaked = [o for o in garbage if isinstance(o, RUN_TYPES)]
    if exempt_class:
        roots = [o for o in garbage
                 if isinstance(o, type) and o.__name__ == exempt_class]
        assert roots, f"exempt cycle {exempt_class} is gone: drop the exemption"
        covered = _reachable(roots, garbage)
        leaked = [o for o in leaked if id(o) not in covered]
    kinds = sorted({type(o).__name__ for o in leaked})
    assert not leaked, f"run objects left as cyclic garbage: {kinds}"


# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel_id,variant", KERNELS)
def test_kernel_run_frees_itself(kernel_id, variant, backend):
    kernel = registry.get(kernel_id)

    def case() -> None:
        result = run(getattr(kernel, variant), seed=1, backend=backend,
                     observers=[RaceDetector(), ChannelRuleChecker(),
                                LockOrderDetector()],
                     **kernel.run_kwargs)
        del result

    _assert_freed(case, EXEMPT.get(kernel_id, ("",))[0])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("plan", [None, plans.default_suite()[-1]],
                         ids=["baseline", plans.default_suite()[-1].name])
@pytest.mark.parametrize("name,program,kwargs", all_scenarios(),
                         ids=[name for name, _, _ in all_scenarios()])
def test_app_run_frees_itself(name, program, kwargs, plan, backend):
    def case() -> None:
        result = run(program, seed=1, inject=plan, backend=backend, **kwargs)
        del result

    _assert_freed(case)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,program,kwargs", recovery_scenarios(),
                         ids=[name for name, _, _ in recovery_scenarios()])
def test_recovery_run_frees_itself(name, program, kwargs, backend):
    kwargs = {k: v for k, v in kwargs.items() if k != "ok"}

    def case() -> None:
        result = run(program, seed=1, inject=plans.crash_restart(),
                     backend=backend, **kwargs)
        del result

    _assert_freed(case)


@pytest.mark.parametrize("backend", BACKENDS)
def test_loadgen_run_frees_itself(backend):
    if backend == "coroutine":
        # loadgen_summary runs on the default vehicle.
        _assert_freed(lambda: loadgen_summary(seed=1, clients=3, requests=10))
        return

    def case() -> None:
        result = run(lambda rt: echo_load_program(rt, clients=3, requests=10),
                     seed=1, keep_trace=False, backend=backend)
        del result

    _assert_freed(case)


# ----------------------------------------------------------------------
# What a RunResult still exposes after teardown
# ----------------------------------------------------------------------


def _panicking(rt):
    ch = rt.make_chan(0, name="stuck")

    def blocked():
        ch.recv()

    def done():
        return 7

    rt.go(blocked, name="blocked")
    rt.go(done, name="done")
    rt.sleep(0.1)
    rt.panic("boom")


@pytest.mark.parametrize("backend", BACKENDS)
def test_result_goroutines_stay_readable(backend):
    result = run(_panicking, seed=3, backend=backend, drain=False)
    assert result.status == "panic"
    by_name = {g.name: g for g in result.goroutines}
    main, blocked, done = by_name["main"], by_name["blocked"], by_name["done"]
    assert [g.gid for g in result.goroutines] == [1, 2, 3]
    assert main.state == GState.PANICKED
    assert main.panic_value.value == "boom"
    assert main.panic_value.__traceback__ is None
    assert "GoPanic" in main.panic_traceback
    assert result.panic_goroutine is main
    assert done.state == GState.DONE and done.result == 7
    assert blocked.state == GState.KILLED
    assert blocked.block_reason == "chan.recv:stuck"
    assert blocked.describe().startswith("goroutine 2 (blocked) at ")
    assert "killed [chan.recv:stuck]" in blocked.describe()
    # The edges back into the run are gone.
    for g in result.goroutines:
        assert g._sched is None and g.fn is None and g.args == ()


def test_stuck_host_keeps_its_edges(monkeypatch):
    """A goroutine whose host survived kill may still re-enter the
    runtime, so teardown leaves its edges in place."""
    from repro.runtime import goroutine as goroutine_mod

    monkeypatch.setattr(goroutine_mod, "HOST_JOIN_TIMEOUT", 0.2)

    def program(rt):
        ch = rt.make_chan(0, name="never")

        def stubborn():
            while True:
                try:
                    ch.recv()
                except BaseException:
                    continue

        rt.go(stubborn, name="stubborn")
        rt.sleep(0.1)

    with pytest.warns(RuntimeWarning, match="did not unwind"):
        result = run(program, drain=False)
    stuck = result.stuck_host_threads[0]
    assert stuck._sched is not None and stuck.fn is not None
    main = result.goroutines[0]
    assert main._sched is None and main.fn is None


def test_run_frees_scheduler_and_runtime_on_return():
    """The result holds no edge back to the scheduler or runtime, so with
    the collector off both are gone by the time ``run`` returns."""
    seen = {}

    class Probe:
        def attach(self, rt):
            seen["rt"] = weakref.ref(rt)
            seen["sched"] = weakref.ref(rt.sched)

    gc.disable()
    try:
        result = run(_panicking, seed=3, observers=[Probe()])
        assert seen["rt"]() is None and seen["sched"]() is None
        assert result.status == "panic" and len(result.trace) > 0
    finally:
        gc.enable()
