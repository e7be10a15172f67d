"""Network throughput: the fabric under load, and determinism at scale.

Two claims about :mod:`repro.net`:

1. The virtual-time load generator sustains **six figures of requests in
   one deterministic run** — 100,000 echo round trips through the
   simulated fabric, with latency percentiles from the observe-layer
   histograms, in seconds of wall clock.
2. Loadgen seed sweeps are **byte-identical** across worker counts:
   ``jobs=4`` returns exactly the serial summaries.

perfbench's net-loadgen workload times the fabric.
"""

from functools import partial

from repro.net.demo import loadgen_summary
from repro.parallel import map_units


def test_loadgen_sustains_100k_requests(benchmark, report):
    summary = benchmark.pedantic(
        lambda: loadgen_summary(seed=3, clients=40, requests=2500,
                                rate=500.0),
        rounds=1, iterations=1)

    lat = summary["latency"]
    report("Virtual-time load generator at 100k requests", "\n".join([
        f"requests: {summary['requests']:,} from {summary['clients']} "
        f"client(s)",
        f"status: {summary['status']}  steps: {summary['steps']:,}  "
        f"virtual: {summary['virtual_s']:.2f}s",
        f"throughput: {summary['rps_virtual']:,.0f} req/s virtual",
        f"latency: mean={lat['mean'] * 1e3:.3f}ms "
        f"p50<={lat['p50'] * 1e3:.3f}ms p90<={lat['p90'] * 1e3:.3f}ms "
        f"p99<={lat['p99'] * 1e3:.3f}ms max={lat['max'] * 1e3:.3f}ms",
        f"fabric: {summary['net']}",
    ]))

    assert summary["status"] == "ok"
    assert summary["requests"] == 100_000
    assert summary["errors"] == 0
    assert summary["leaked"] == 0
    assert lat["count"] == 100_000
    assert lat["p99"] >= lat["p50"] > 0
    assert summary["net"]["delivered"] == summary["net"]["sent"]


def test_loadgen_sweep_parallel_identical(benchmark, report):
    units = [partial(loadgen_summary, seed, 4, 50, 200.0, "poisson")
             for seed in range(6)]

    serial = map_units(units, jobs=1)
    parallel = benchmark.pedantic(
        lambda: map_units(units, jobs=4), rounds=1, iterations=1)

    report("Loadgen sweep equivalence", "\n".join(
        [f"seed={row['seed']}: requests={row['requests']} "
         f"steps={row['steps']} virtual={row['virtual_s']}s "
         f"p99<={row['latency']['p99'] * 1e3:.3f}ms"
         for row in serial]
        + [f"jobs=4 byte-identical to jobs=1: {serial == parallel}"]))

    assert serial == parallel
    assert all(row["errors"] == 0 for row in serial)
