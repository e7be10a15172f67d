"""The life of a continuation's datastack chunk on the tasklet vehicle.

CPython 3.11 puts Python frames on per-thread "datastack" chunks and never
frees a thread's root chunk.  Each continuation gets its own chunks: it
starts on a parked root chunk (or allocates one on its first frame push),
and when it finishes, ``_ctasklet`` parks the root chunk for the next one
and frees anything else on the chain.  Every way a continuation can end
must hand its chunks back, and the one way it may not end -- abandoned
while suspended -- must keep them, since live frames sit on them.

Each case repeats in a fresh process and asserts that ``VmSize`` and
``VmRSS`` stay flat (see :mod:`tests.memprobe`); a leaked chunk is at
least 16 KiB of address space per continuation.
"""

import queue
import sys
import threading
import warnings

import pytest

from repro import run
from repro.runtime.errors import Killed
from repro.runtime.goroutine import tasklet_module
from repro.runtime.scheduler import resolve_backend
from tests.memprobe import (has_proc_status, measured_fields, ten_senders,
                             vm_growth)

pytestmark = pytest.mark.skipif(
    resolve_backend("coroutine") != "tasklet" or not has_proc_status(),
    reason="the tasklet vehicle (_ctasklet) or /proc is unavailable here")

RUNS = 500
BOUND_PER_RUN = 512

MODULE = "tests.runtime.test_tasklet_chunks"


def _recurse(n):
    return 0 if n == 0 else 1 + _recurse(n - 1)


#: Deep enough that the frames overflow the 16 KiB root chunk, so CPython
#: pushes a second chunk (and frees it as they pop).
DEPTH = 600


# -- cases driven through _ctasklet directly ------------------------------


def killed_before_start(i):
    """``throw`` on a continuation that never ran: no chunk exists."""
    mod = tasklet_module()
    ran = []
    t = mod.Tasklet(lambda: ran.append(i), mod.current())
    t.throw(Killed)
    assert t.dead and ran == []


class _DelRunsPython:
    """A target whose ``__del__`` runs Python on the dying continuation,
    when ``_ctasklet`` drops its last reference to the target."""

    def __init__(self, log):
        self.log = log

    def __call__(self):
        self.log.append("ran")

    def __del__(self):
        self.log.append(_recurse(DEPTH))


def del_runs_python_at_death(i):
    mod = tasklet_module()
    log = []
    t = mod.Tasklet(_DelRunsPython(log), mod.current())
    t.switch()
    assert t.dead and log == ["ran", DEPTH]


def child_outlives_parent(i):
    """The child finishes after its parent died, so it returns to the
    nearest live ancestor (the thread's main continuation)."""
    mod = tasklet_module()
    hub = mod.current()
    order, children = [], []

    def child():
        order.append("child parked")
        hub.switch()
        order.append("child done")

    def parent():
        children.append(mod.Tasklet(child, mod.current()))
        children[0].switch()
        order.append("parent done")

    p = mod.Tasklet(parent, hub)
    p.switch()   # parent starts the child, which parks back here
    p.switch()   # parent finishes first
    assert p.dead and not children[0].dead
    children[0].switch()
    assert children[0].dead
    assert order == ["child parked", "parent done", "child done"]


_huge: dict = {"out": []}
exec("def huge_frame():\n" + "".join(f"    v{k} = {k}\n" for k in range(2100))
     + "    out.append(v2099)\n", _huge)


def huge_first_frame(i):
    """A first frame too big for the default 16 KiB chunk makes a bigger
    root chunk, which is freed at death rather than parked."""
    mod = tasklet_module()
    _huge["out"].clear()
    t = mod.Tasklet(_huge["huge_frame"], mod.current())
    t.switch()
    assert t.dead and _huge["out"] == [2099]


# -- cases driven through run() -------------------------------------------


def _parked_program(rt):
    ch = rt.make_chan()
    for _ in range(10):
        rt.go(ch.recv)
    rt.sleep(0.01)  # all ten park on the channel, then teardown kills them


def killed_while_parked(i):
    result = run(_parked_program, seed=i, drain=False)
    assert sum(g.state == "killed" for g in result.goroutines) == 10


def _deep_program(rt):
    ch = rt.make_chan()
    out = rt.make_chan(4)

    def dig(n):
        if n == 0:
            return ch.recv()  # parks with two chunks on its chain
        return dig(n - 1)

    for _ in range(4):
        rt.go(lambda: out.send(dig(DEPTH)))
    rt.sleep(0.01)
    ch.send(1)
    ch.send(2)  # two finish, two are killed while parked deep
    return sorted(out.recv() for _ in range(2))


def deep_recursion(i):
    result = run(_deep_program, seed=i, drain=False)
    assert result.main_result == [1, 2]


_jobs = [queue.Queue(), queue.Queue()]
_done: queue.Queue = queue.Queue()


def _thread_worker(jobs):
    while True:
        seed = jobs.get()
        try:
            for k in range(2):
                assert run(ten_senders, seed=seed + k).main_result == 45
            _done.put(None)
        except BaseException as exc:
            _done.put(exc)


def two_threads(i):
    """Runs driven from two OS threads at once: each thread has its own
    main continuation and its own free lists."""
    if not getattr(two_threads, "started", False):
        sys.setswitchinterval(1e-5)  # interleave the threads' runs
        for jobs in _jobs:
            threading.Thread(target=_thread_worker, args=(jobs,),
                             daemon=True).start()
        two_threads.started = True
    for jobs in _jobs:
        jobs.put(i)
    for _ in _jobs:
        error = _done.get()
        if error is not None:
            raise error


CASES = ["killed_before_start", "del_runs_python_at_death",
         "child_outlives_parent", "huge_first_frame", "killed_while_parked",
         "deep_recursion", "two_threads"]


@pytest.mark.parametrize("case", CASES)
def test_case_behaves_in_process(case):
    globals()[case](0)


@pytest.mark.parametrize("case", CASES)
def test_case_leaves_the_process_size_flat(case):
    growth = vm_growth(f"{MODULE}:{case}", RUNS)
    for field in measured_fields():
        assert growth[field] <= BOUND_PER_RUN * RUNS, (
            f"{case}: {field} grew {growth[field] / RUNS:.0f} B per run")


# -- an abandoned continuation keeps its chunks ---------------------------


def _stubborn_program(rt, log):
    ch = rt.make_chan(0, name="never")

    def dig(n):
        token = ("frame", n, [n] * 3)
        if n == 0:
            while len(log) < 3:
                try:
                    ch.recv()
                except BaseException as exc:  # swallows Killed
                    log.append(type(exc).__name__)
        else:
            dig(n - 1)
        log.append(token)

    rt.go(lambda: dig(DEPTH), name="stubborn")
    rt.sleep(0.1)
    return "done"


def test_abandoned_continuation_resumes_with_its_frames_intact():
    log = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run(_stubborn_program, args=(log,), drain=False,
                     host_join_timeout=0.1)
    assert log == ["Killed", "Killed"]
    [stuck] = result.stuck_host_threads
    assert not stuck._tk.dead
    # Hundreds of continuations start and finish on recycled chunks while
    # the abandoned one stays suspended on its own.
    for seed in range(300):
        assert run(ten_senders, seed=seed).main_result == 45
    stuck._tk.switch()  # resumes, swallows one more Killed and returns
    assert stuck._tk.dead
    assert log[:3] == ["Killed"] * 3
    assert log[3:] == [("frame", n, [n] * 3) for n in range(DEPTH + 1)]
