"""repro — reproduction of "Understanding Real-World Concurrency Bugs in Go".

A pure-Python, deterministic simulator of Go's concurrency model, an
executable corpus of the paper's bug patterns, reimplementations of the two
evaluated detectors, and the empirical-study pipeline that regenerates every
table and figure in the paper's evaluation.

Quickstart::

    from repro import run, recv, send

    def main(rt):
        ch = rt.make_chan()           # unbuffered channel
        rt.go(lambda: ch.send("hi"))  # goroutine
        print(ch.recv())

    result = run(main, seed=1)
    assert result.status == "ok"

See README.md for the full tour and DESIGN.md for the architecture.
"""

from .chan import Channel, NilChannel, recv, send
from .inject import Fault, FaultInjector, FaultPlan
from .observe import Observer, chrome_trace, chrome_trace_json, measure_overhead
from .parallel import RunSummary, sweep_seeds
from .runtime import (
    DeadlockError,
    EventKind,
    GoPanic,
    Goroutine,
    RunResult,
    Runtime,
    SimulatorError,
    Trace,
    TraceEvent,
    explore,
    run,
)
from .stdlib import CANCELED, DEADLINE_EXCEEDED, EOF, PipeError
from .sync import (
    AtomicInt,
    AtomicValue,
    Cond,
    Mutex,
    Once,
    RWMutex,
    SharedVar,
    WaitGroup,
)

__version__ = "1.0.0"

__all__ = [
    "AtomicInt",
    "AtomicValue",
    "CANCELED",
    "Channel",
    "Cond",
    "DEADLINE_EXCEEDED",
    "DeadlockError",
    "EOF",
    "EventKind",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "GoPanic",
    "Goroutine",
    "Mutex",
    "NilChannel",
    "Observer",
    "Once",
    "PipeError",
    "RWMutex",
    "RunResult",
    "RunSummary",
    "Runtime",
    "SharedVar",
    "SimulatorError",
    "Trace",
    "TraceEvent",
    "WaitGroup",
    "chrome_trace",
    "chrome_trace_json",
    "explore",
    "measure_overhead",
    "recv",
    "run",
    "send",
    "sweep_seeds",
    "__version__",
]
