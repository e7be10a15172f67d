"""Soak: a finished run hands back all the memory its goroutines held.

On the tasklet vehicle every goroutine's continuation takes a C stack and,
on its first Python frame, a 16 KiB root datastack chunk.  Both come back
to small per-thread free lists when the goroutine ends, so a long sweep
of runs holds a fixed amount of either, however many goroutines it
spawns.  Both are mmaps, which ``gc``, ``tracemalloc`` and LeakSanitizer
cannot see, so the soak reads ``VmSize`` and ``VmRSS`` from
``/proc/self/status`` in a fresh process (see :mod:`tests.memprobe`).

The free lists are thread locals.  A third probe starts and joins OS
threads that each drive runs: when a thread exits, what it parked goes
back to the system with it.

A last soak bounds what those tools do see: the Python objects and the
traced heap that thousands of observed runs leave behind.
"""

import json
import textwrap

import pytest

from repro import run
from repro.detect import LockOrderDetector, RaceDetector
from repro.observe import Observer
from repro.runtime.scheduler import resolve_backend
from tests.memprobe import (has_proc_status, measured_fields, run_child,
                             ten_senders, thread_exit_growth, vm_growth)

pytestmark = pytest.mark.skipif(
    resolve_backend("coroutine") != "tasklet" or not has_proc_status(),
    reason="the tasklet vehicle (_ctasklet) or /proc is unavailable here")

#: Runs per soak, and the growth each may leave, in bytes.  One leaked
#: root chunk per goroutine is 16 KiB of VmSize and 4 KiB of VmRSS.
RUNS = 2000
BOUND_PER_RUN = 256

MODULE = "tests.runtime.test_tasklet_memory"


def _empty(rt):
    return None


def ten_goroutines(seed):
    assert run(ten_senders, seed=seed).main_result == 45


def empty_program(seed):
    run(_empty, seed=seed)


def observed_run(seed):
    result = run(ten_senders, seed=seed, observe=Observer(),
                 observers=[RaceDetector(), LockOrderDetector()])
    assert result.main_result == 45


@pytest.mark.parametrize("work", ["ten_goroutines", "empty_program"])
def test_runs_leave_the_process_size_flat(work):
    growth = vm_growth(f"{MODULE}:{work}", RUNS)
    for field in measured_fields():
        assert growth[field] <= BOUND_PER_RUN * RUNS, (
            f"{work}: {field} grew {growth[field] / RUNS:.0f} B per run")


#: Threads started and joined by the thread-exit probe, and the VmSize
#: each may leave.  A thread that kept its parked stacks (516 KiB each)
#: and chunks left several MiB.
THREADS = 20
BOUND_PER_THREAD = 64 * 1024


def test_an_exiting_thread_returns_its_parked_memory():
    growth = thread_exit_growth(threads=THREADS, runs=20, warmup=3)
    assert growth["VmSize"] <= BOUND_PER_THREAD * THREADS, (
        f"VmSize grew {growth['VmSize'] / THREADS:.0f} B per thread")


_OBJECTS_SCRIPT = textwrap.dedent(f"""
    import gc, json, tracemalloc
    from {MODULE} import observed_run

    for i in range(200):
        observed_run(i)
    gc.collect()
    tracemalloc.start()
    objects = len(gc.get_objects())
    traced = tracemalloc.get_traced_memory()[0]
    for i in range(200, 200 + {RUNS}):
        observed_run(i)
    gc.collect()
    print(json.dumps({{
        "objects": len(gc.get_objects()) - objects,
        "traced": tracemalloc.get_traced_memory()[0] - traced,
    }}))
""")


def test_observed_runs_leave_no_python_objects():
    growth = json.loads(run_child(_OBJECTS_SCRIPT).strip().splitlines()[-1])
    assert growth["objects"] <= 20, growth
    assert growth["traced"] <= 64 * 1024, growth
