"""Five small programs the runtime parity suites replay.

Each stresses one part of the scheduler: unbuffered rendezvous, mutex
contention, select fan-in, goroutine spawn, and pure yields.  The
backend-determinism, hot-loop and compiled-parity suites run them by
name (``WORKLOADS``), so their parametrized test ids are these keys.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.chan import recv


def pingpong(rt) -> None:
    """Unbuffered rendezvous: 50 round trips between two goroutines."""
    ping = rt.make_chan()
    pong = rt.make_chan()

    def echo():
        for _ in range(50):
            ping.recv()
            pong.send(None)

    rt.go(echo)
    for _ in range(50):
        ping.send(None)
        pong.recv()


def mutex_contention(rt) -> None:
    """Four workers taking one mutex 25 times each."""
    mu = rt.mutex()
    done = rt.waitgroup()

    def worker():
        for _ in range(25):
            with mu:
                pass
        done.done()

    for _ in range(4):
        done.add(1)
        rt.go(worker)
    done.wait()


def select_fanin(rt) -> None:
    """Four feeders fanning into one select loop."""
    channels = [rt.make_chan(1) for _ in range(4)]

    def feeder(ch):
        for i in range(10):
            ch.send(i)

    for ch in channels:
        rt.go(feeder, ch)
    got = 0
    while got < 40:
        rt.select(*[recv(ch) for ch in channels])
        got += 1


def spawn_heavy(rt) -> None:
    """Forty short-lived goroutines against one waitgroup."""
    wg = rt.waitgroup()
    for _ in range(40):
        wg.add(1)
        rt.go(wg.done)
    wg.wait()


def spin(rt) -> None:
    """Pure scheduler steps: four workers yielding 2500 times each.

    Nothing blocks until the very end, so every step is pick, switch,
    requeue: the cell where the compiled drive loop does all the work.
    """
    wg = rt.waitgroup()

    def worker():
        for _ in range(2500):
            rt.gosched()
        wg.done()

    for _ in range(4):
        wg.add(1)
        rt.go(worker)
    wg.wait()


WORKLOADS: Dict[str, Callable[[Any], None]] = {
    "pingpong": pingpong,
    "mutex": mutex_contention,
    "select_fanin": select_fanin,
    "spawn": spawn_heavy,
    "spin": spin,
}
