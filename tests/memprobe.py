"""Process memory growth over repeated work, measured in a fresh interpreter.

The tasklet vehicle's per-goroutine memory lives in mmaps: each
continuation's C stack and CPython's datastack chunks.  Neither
``gc.get_objects()`` nor ``tracemalloc`` sees those, and LeakSanitizer
does not track mmaps either, so a leak there shows only in the process's
own ``VmSize`` / ``VmRSS`` (``/proc/self/status``).

:func:`vm_growth` runs ``work(i)`` in a child interpreter: ``warmup``
times to fill the free lists and the allocator's arenas, then ``runs``
more between two readings.  It returns the growth in bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from typing import Dict, Tuple

#: The process-size fields a probe reports, as named in /proc/self/status.
FIELDS = ("VmSize", "VmRSS")

_SCRIPT = textwrap.dedent("""
    import importlib, json, sys
    from tests.memprobe import vm_bytes

    module, name = sys.argv[1].split(":")
    warmup, runs = int(sys.argv[2]), int(sys.argv[3])
    work = getattr(importlib.import_module(module), name)
    for i in range(warmup):
        work(i)
    before = vm_bytes()
    for i in range(warmup, warmup + runs):
        work(i)
    after = vm_bytes()
    print(json.dumps({k: after[k] - before[k] for k in before}))
""")


_THREAD_SCRIPT = textwrap.dedent("""
    import json, os, sys, threading, time
    from repro import run
    from tests.memprobe import ten_senders, vm_bytes

    warmup, threads, runs = map(int, sys.argv[1:4])
    tasks = len(os.listdir("/proc/self/task"))
    errors = []
    threading.excepthook = errors.append

    def work():
        for seed in range(runs):
            assert run(ten_senders, seed=seed).main_result == 45

    def one_thread():
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), "a probe thread did not finish"
        # join() returns before the OS thread is gone.  Wait for that, so
        # the next thread reuses its C stack and malloc arena instead of
        # mapping new ones.
        deadline = time.monotonic() + 60
        while len(os.listdir("/proc/self/task")) > tasks:
            assert time.monotonic() < deadline, "a probe thread did not exit"
            time.sleep(0.001)

    for _ in range(warmup):
        one_thread()
    before = vm_bytes()
    for _ in range(threads):
        one_thread()
    after = vm_bytes()
    assert not errors, errors[0].exc_value
    print(json.dumps({k: after[k] - before[k] for k in before}))
""")


def ten_senders(rt) -> int:
    """The probe program: main and ten goroutines that each send once."""
    ch = rt.make_chan()
    for i in range(10):
        rt.go(ch.send, i)
    return sum(ch.recv() for _ in range(10))


def sanitized() -> bool:
    """True when AddressSanitizer's runtime is preloaded.  Its allocator
    keeps freed memory resident (the quarantine, per-thread caches, the
    allocation-stack depot), so growth of ``VmRSS`` says nothing about the
    program there; growth of ``VmSize`` still does."""
    return "libasan" in os.environ.get("LD_PRELOAD", "")


def measured_fields() -> Tuple[str, ...]:
    """The :data:`FIELDS` whose growth a probe can bound in this process."""
    return ("VmSize",) if sanitized() else FIELDS


def vm_bytes() -> Dict[str, int]:
    """This process's current :data:`FIELDS`, in bytes."""
    out = {}
    with open("/proc/self/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in FIELDS:
                out[key] = int(value.split()[0]) * 1024  # reported in kB
    return out


def has_proc_status() -> bool:
    return os.path.exists("/proc/self/status")


def child_env(**extra: str) -> Dict[str, str]:
    """The environment for a child that imports ``repro`` and ``tests``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **extra)


def run_child(script: str, *args: str, **env: str) -> str:
    """Run ``script`` in a fresh interpreter; return its stdout."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True,
                          env=child_env(**env), timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def vm_growth(work: str, runs: int, warmup: int = 200, **env: str
              ) -> Dict[str, int]:
    """Growth of :data:`FIELDS` over ``runs`` calls of ``work``
    (``"module:function"``), after ``warmup`` calls, in a child process."""
    out = run_child(_SCRIPT, work, str(warmup), str(runs), **env)
    return json.loads(out.strip().splitlines()[-1])


def thread_exit_growth(threads: int = 20, runs: int = 20, warmup: int = 3,
                       **env: str) -> Dict[str, int]:
    """Growth of :data:`FIELDS` over ``threads`` OS threads, started and
    joined one after another, each driving ``runs`` runs of
    :func:`ten_senders`, after ``warmup`` such threads, in a child
    process.  What a thread leaves behind when it exits shows here."""
    out = run_child(_THREAD_SCRIPT, str(warmup), str(threads), str(runs),
                    **env)
    return json.loads(out.strip().splitlines()[-1])
