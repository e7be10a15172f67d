"""Observer self-overhead: the observability layer's two headline claims.

1. **Determinism** — observing a run is a pure function of ``(program,
   seed)``: two same-seed observed runs produce *byte-identical* profile
   and metrics dumps, and the observed schedule is bit-identical to the
   unobserved one (inertness).

2. **Bounded cost** — full observation (sites, stacks, occupancy series)
   costs less than ``OVERHEAD_BOUND``× wall-clock on the simulator-perf
   workloads, measured best-of-N to damp host noise.
"""

from repro import measure_overhead, run
from repro.chan import recv
from repro.observe import Observer, schedule_fingerprint
from repro.study.tables import render

#: Wall-clock ratio ceiling for the fully-instrumented observer.  The
#: acceptance bound is 2.0; the assert leaves headroom for CI jitter on
#: sub-millisecond workloads by repeating and taking the best run.
OVERHEAD_BOUND = 2.0
REPEATS = 5


# ----------------------------------------------------------------------
# Workloads: four small scheduler and primitive scenarios.
# ----------------------------------------------------------------------


def pingpong(rt):
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


def mutex_contention(rt):
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


def select_fanin(rt):
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


def goroutine_spawn(rt):
    wg = rt.waitgroup()
    for _ in range(40):
        wg.add(1)
        rt.go(wg.done)
    wg.wait()


WORKLOADS = [
    ("channel pingpong", pingpong),
    ("mutex contention", mutex_contention),
    ("select fan-in", select_fanin),
    ("goroutine spawn", goroutine_spawn),
]


def test_observe_dumps_are_byte_identical_per_seed(benchmark, report):
    def dumps():
        out = []
        for name, program in WORKLOADS:
            for seed in (0, 3):
                first = run(program, seed=seed, observe=True)
                second = run(program, seed=seed, observe=True)
                out.append((name, seed,
                            first.observation.to_json(),
                            second.observation.to_json()))
        return out

    pairs = benchmark.pedantic(dumps, rounds=1, iterations=1)
    mismatched = [(name, seed) for name, seed, a, b in pairs if a != b]
    assert not mismatched, mismatched
    report(
        "Observer determinism",
        "\n".join(f"{name} seed={seed}: {len(a)} byte dump, byte-identical"
                  for name, seed, a, _ in pairs),
    )


def test_observe_is_schedule_inert_on_every_workload(benchmark):
    def fingerprints():
        out = []
        for name, program in WORKLOADS:
            bare = run(program, seed=1)
            observed = run(program, seed=1, observe=True)
            out.append((name, schedule_fingerprint(bare),
                        schedule_fingerprint(observed)))
        return out

    rows = benchmark.pedantic(fingerprints, rounds=1, iterations=1)
    diverged = [name for name, bare, observed in rows if bare != observed]
    assert not diverged, diverged


def test_observe_overhead_bounded(benchmark, report):
    def measure():
        return [
            measure_overhead(program, seed=1, repeats=REPEATS, name=name)
            for name, program in WORKLOADS
        ]

    reports = benchmark.pedantic(measure, rounds=1, iterations=1)

    table = render(
        ["Workload", "Steps", "Base ms", "Observed ms", "Ratio", "Schedule"],
        [[r.program, r.steps, f"{r.base_seconds * 1e3:.2f}",
          f"{r.observed_seconds * 1e3:.2f}", f"{r.ratio:.2f}x",
          "identical" if r.identical_schedule else "DIVERGED"]
         for r in reports],
        title=f"Observer overhead (best of {REPEATS}, bound "
              f"{OVERHEAD_BOUND:.1f}x)",
    )
    report("Observer overhead", table)

    assert all(r.identical_schedule for r in reports)
    over = [(r.program, r.ratio) for r in reports if r.ratio >= OVERHEAD_BOUND]
    assert not over, f"observer overhead exceeded {OVERHEAD_BOUND}x: {over}"


def test_observe_without_sites_is_cheaper_dimension(benchmark, report):
    """The capture knobs matter: a site-free observer does strictly less
    work per block, so its dump is smaller and its overhead no larger."""

    def measure():
        full = run(mutex_contention, seed=1, observe=Observer())
        lean = run(mutex_contention, seed=1,
                   observe=Observer(capture_sites=False,
                                    track_occupancy=False))
        return full.observation, lean.observation

    full_obs, lean_obs = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert len(lean_obs.to_json()) < len(full_obs.to_json())
    report(
        "Observer capture knobs",
        f"full dump: {len(full_obs.to_json())} bytes; "
        f"sites+occupancy off: {len(lean_obs.to_json())} bytes",
    )
