"""Microbenchmarks of the simulator substrate itself.

Not a paper table — these time the machinery every experiment rides on,
so regressions in the scheduler/primitives show up here first.  The same
workloads back ``repro bench`` (:mod:`repro.bench`), whose JSON output is
the committed ``BENCH_simulator.json`` baseline; CI's perf-smoke job runs
both without gating the build.
"""

from repro import run
from repro.bench import WORKLOADS
from repro.chan import recv, send


def test_perf_channel_pingpong(benchmark):
    """Rendezvous throughput: N unbuffered round trips."""

    def main(rt):
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

    result = benchmark(lambda: run(main, seed=1))
    assert result.status == "ok"


def test_perf_mutex_contention(benchmark):
    def main(rt):
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

    result = benchmark(lambda: run(main, seed=1))
    assert result.status == "ok"


def test_perf_select_fanin(benchmark):
    def main(rt):
        channels = [rt.make_chan(1) for _ in range(4)]

        def feeder(ch):
            for i in range(10):
                ch.send(i)

        for ch in channels:
            rt.go(feeder, ch)
        got = 0
        while got < 40:
            _i, _v, _ok = rt.select(*[recv(ch) for ch in channels])
            got += 1

    result = benchmark(lambda: run(main, seed=1))
    assert result.status == "ok"


def test_perf_goroutine_spawn(benchmark):
    def main(rt):
        wg = rt.waitgroup()
        for _ in range(40):
            wg.add(1)
            rt.go(wg.done)
        wg.wait()

    result = benchmark(lambda: run(main, seed=1))
    assert result.status == "ok"


def test_perf_fastpath_pingpong(benchmark):
    """The sweep configuration: no observer, no kept trace.  This is the
    number the scheduler fast path (direct handoff, batched RNG, gated
    trace allocation) is accountable for."""
    program = WORKLOADS["pingpong"]
    result = benchmark(lambda: run(program, seed=1, keep_trace=False))
    assert result.status == "ok"


def test_perf_fastpath_mutex(benchmark):
    program = WORKLOADS["mutex"]
    result = benchmark(lambda: run(program, seed=1, keep_trace=False))
    assert result.status == "ok"


def test_perf_sweep_serial(benchmark):
    """16-seed serial sweep through the parallel engine's summary path —
    the jobs=1 denominator of the scaling numbers in BENCH_simulator.json."""
    from repro.parallel import sweep_seeds

    program = WORKLOADS["pingpong"]
    summaries = benchmark(lambda: sweep_seeds(program, range(16), jobs=1))
    assert all(s.status == "ok" for s in summaries)


def test_perf_race_detector_overhead(benchmark):
    """A run with the detector attached vs. the raw run (reported via two
    benchmark rounds — compare in the table)."""
    from repro.detect import RaceDetector

    def main(rt):
        v = rt.shared("v", 0)
        mu = rt.mutex()
        wg = rt.waitgroup()

        def worker():
            for _ in range(10):
                with mu:
                    v.add(1)
            wg.done()

        for _ in range(3):
            wg.add(1)
            rt.go(worker)
        wg.wait()

    def with_detector():
        detector = RaceDetector()
        return run(main, seed=1, observers=[detector])

    result = benchmark(with_detector)
    assert result.status == "ok"


if __name__ == "__main__":  # pragma: no cover
    # `python benchmarks/bench_simulator_perf.py --out BENCH_simulator.json`
    # produces the same JSON document as `repro bench`.
    import sys

    from repro.bench import main

    sys.exit(main())
