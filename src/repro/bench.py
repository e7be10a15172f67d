"""Built-in performance benchmarks: ``repro bench`` / ``python -m repro.bench``.

Times the three things the whole system's throughput hangs on:

* **single-run fast path** — one simulation with no observer and no kept
  trace, the configuration sweeps actually run in; reported per workload
  as ms/run and scheduler steps/s;
* **sweep scaling** — a 64-seed sweep at ``jobs=1`` vs ``jobs=N``
  (:mod:`repro.parallel`), with the byte-identical-results check that the
  equivalence tests also enforce.  The sweep is measured twice: *cold*
  (fresh pool — the first sweep a process ever runs) and *steady-state*
  (persistent pool already warm — every later sweep re-runs every seed).
  The text report leads with ``cold_speedup``.
* **exploration pruning** — systematic exploration to exhaustion on
  corpus kernels with sleep-set pruning off vs on
  (:mod:`repro.detect.systematic`): same verdicts, fewer runs.

Output is a stable JSON document (``BENCH_simulator.json`` at the repo
root holds the committed baseline; CI's non-gating perf-smoke job uploads
a fresh one per run so trends are visible without failing builds, and
``--baseline BENCH_simulator.json`` prints a delta table against the
committed numbers).  Numbers are hardware-dependent — compare runs from
the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .runtime._hotloop import HAS_COMPILED
from .runtime.runtime import run

#: Bump when the document layout changes.
#: 2: ``sweep`` split into cold/steady-state + ``pool_reuse``; ``explore``
#: section added.
#: 3: coroutine-core scheduler.  Every ``single`` cell records the
#: resolved ``backend`` and whether the ``compiled`` hot loop could drive
#: it; the document gains top-level ``backend``/``compiled`` fields and a
#: ``spin`` workload (the pure fast-path cell the ≥1M steps/s target is
#: measured on); ``--compare-backends`` emits a ``backends`` section.
#: 4: compiled channel/select/sync fast ops.  New ``channel_fastpath``
#: section (channel-heavy cells timed compiled vs forced-pure, with the
#: schedule-digest parity witness), ``loadgen100k`` (a 100k-request echo
#: load run, compiled vs pure wall time), and ``fallbacks`` (backend
#: fallback counts plus the fast-op engage/bail counters accumulated over
#: the whole bench process); ``single`` cells gain ``fastops_per_run`` and
#: ``compiled`` now reports what the run actually had loaded.
#: 5: the compiled channel/select/sync ops are gone, and with them the
#: ``channel_fastpath`` and ``fallbacks`` sections and ``fastops_per_run``;
#: ``compiled`` means the drive loop was available to the run.
SCHEMA = 5


# ----------------------------------------------------------------------
# Workloads (shared with benchmarks/bench_simulator_perf.py)
# ----------------------------------------------------------------------


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
    from .chan import recv as recv_case

    channels = [rt.make_chan(1) for _ in range(4)]

    def feeder(ch):
        for i in range(10):
            ch.send(i)

    for ch in channels:
        rt.go(feeder, ch)
    got = 0
    while got < 40:
        rt.select(*[recv_case(ch) for ch in channels])
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

    Nothing blocks until the very end, so every step is pick → switch →
    requeue — the fast-path cell the compiled hot-loop target (≥1M
    steps/s single-core) is measured on.
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


# ----------------------------------------------------------------------
# Network workloads (repro.net; see BENCH_net.json for the baseline)
# ----------------------------------------------------------------------


def net_pingpong(rt) -> None:
    """Fifty request/reply round trips over one fabric connection."""
    from .net import Node

    net = rt.network(name="bench", log_messages=False)
    server = Node(net, "server")
    listener = server.listen("echo")

    def serve() -> None:
        conn = listener.accept()
        server.track(conn)
        for payload in conn:
            conn.send(payload)

    server.go(serve, name="echo")
    client = Node(net, "client")
    conn = client.dial(server.addr("echo"))
    for i in range(50):
        conn.send(i)
        conn.recv_ok()
    conn.shutdown()
    client.stop()
    server.stop()


def net_rpc(rt) -> None:
    """Fifty unary echo RPCs through the multiplexed client."""
    from .net import Node, RpcClient, RpcServer

    net = rt.network(name="bench", log_messages=False)
    server = Node(net, "server")
    rpc = RpcServer(server)
    rpc.register("echo", lambda payload: payload)
    rpc.serve(server.listen("rpc"))
    client_node = Node(net, "client")
    client = RpcClient(client_node, server.addr("rpc"))
    for i in range(50):
        client.call("echo", i)
    client.close()
    client_node.stop()
    server.stop()


NET_WORKLOADS: Dict[str, Callable[[Any], None]] = {
    "net_pingpong": net_pingpong,
    "net_rpc": net_rpc,
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def bench_single(
    program: Callable[[Any], None],
    keep_trace: bool = False,
    rounds: int = 30,
    repeats: int = 3,
    seed: int = 1,
    backend: str = "coroutine",
) -> Dict[str, Any]:
    """Best-of-``repeats`` timing of ``rounds`` serial runs of ``program``.

    Each cell records the resolved ``backend`` (what ``"coroutine"``
    actually picked on this host) and ``compiled`` — whether the compiled
    drive loop was available to the run.
    """
    # Warm-up: imports, code objects, site caches.
    for _ in range(3):
        warm = run(program, seed=seed, keep_trace=keep_trace,
                   backend=backend)
    best = float("inf")
    steps = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        total_steps = 0
        for _ in range(rounds):
            total_steps += run(program, seed=seed, keep_trace=keep_trace,
                               backend=backend).steps
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
            steps = total_steps
    per_run = best / rounds
    return {
        "ms_per_run": round(per_run * 1e3, 4),
        "steps_per_run": steps // rounds,
        "steps_per_s": round(steps / best, 1),
        "backend": warm.backend,
        "compiled": bool(warm.compiled),
    }


def run_backend_comparison(repeats: int = 3, seed: int = 1) -> Dict[str, Any]:
    """The ``backends`` section: thread vs coroutine, side by side.

    For every single-run workload, fast-path steps/s on the opt-in
    ``backend="thread"`` compatibility mode next to the coroutine default,
    plus the determinism witness: one traced run per backend and whether
    the schedule digests came back byte-identical.
    """
    from .parallel.summary import schedule_digest

    rows: Dict[str, Any] = {}
    for name, program in WORKLOADS.items():
        thread = bench_single(program, keep_trace=False, repeats=repeats,
                              seed=seed, backend="thread")
        coro = bench_single(program, keep_trace=False, repeats=repeats,
                            seed=seed, backend="coroutine")
        digest_thread = schedule_digest(
            run(program, seed=seed, keep_trace=True, backend="thread"))
        digest_coro = schedule_digest(
            run(program, seed=seed, keep_trace=True, backend="coroutine"))
        rows[name] = {
            "thread_steps_per_s": thread["steps_per_s"],
            "coroutine_steps_per_s": coro["steps_per_s"],
            "coroutine_backend": coro["backend"],
            "compiled": coro["compiled"],
            "speedup": (round(coro["steps_per_s"] / thread["steps_per_s"], 2)
                        if thread["steps_per_s"] else None),
            "digests_equal": digest_thread == digest_coro,
        }
    return {
        "workloads": rows,
        "all_digests_equal": all(row["digests_equal"]
                                 for row in rows.values()),
    }


def run_loadgen_fastpath(clients: int = 8, requests: int = 12_500,
                         seed: int = 1) -> Dict[str, Any]:
    """The ``loadgen100k`` section: 100k echo requests, compiled vs pure.

    One six-figure-request load-generator run (``requests`` is per
    client) timed with the compiled drive loop and again under
    :class:`force_pure`; ``deterministic`` asserts the two summaries —
    latency histogram, step count, error counts — came back identical, so
    the speedup changed the wall clock and nothing else.  Each side is
    sampled twice, interleaved, best-of — one multi-second run is
    otherwise at the mercy of whatever else the host was doing.
    """
    from .net.demo import loadgen_summary
    from .runtime._hotloop import force_pure

    compiled_s = pure_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        compiled = loadgen_summary(seed=seed, clients=clients,
                                   requests=requests)
        compiled_s = min(compiled_s, time.perf_counter() - t0)
        with force_pure():
            t0 = time.perf_counter()
            pure = loadgen_summary(seed=seed, clients=clients,
                                   requests=requests)
            pure_s = min(pure_s, time.perf_counter() - t0)
    total = compiled["requests"]
    return {
        "clients": clients,
        "requests": total,
        "steps": compiled["steps"],
        "status": compiled["status"],
        "errors": compiled["errors"],
        "compiled_wall_s": round(compiled_s, 4),
        "pure_wall_s": round(pure_s, 4),
        "speedup": round(pure_s / compiled_s, 2) if compiled_s else None,
        "requests_per_wall_s": (round(total / compiled_s, 1)
                                if compiled_s else None),
        "steps_per_s": (round(compiled["steps"] / compiled_s, 1)
                        if compiled_s else None),
        "deterministic": compiled == pure,
    }


def bench_sweep(
    program: Callable[[Any], None],
    n_seeds: int = 64,
    jobs: int = 0,
    keep_trace: bool = True,
    warm_rounds: int = 3,
) -> Dict[str, Any]:
    """Serial vs parallel sweep of ``n_seeds`` seeds, plus the equality check.

    Three measurements:

    * ``serial_s`` — ``jobs=1``: the baseline cost of the work.
    * ``parallel_cold_s`` — ``jobs=N`` after :func:`shutdown_pool`: pool
      creation + dispatch + execution, the first sweep a process pays;
      ``cold_speedup`` is ``serial_s / parallel_cold_s``.
    * ``steady_s`` — the last of ``warm_rounds`` repeat sweeps with the
      persistent pool alive: every seed runs again, only pool creation is
      saved.  ``speedup`` is ``serial_s / steady_s``.

    ``keep_trace=True`` so every summary carries a schedule digest and
    "identical" means the full interleavings matched — across the serial
    sweep, the cold parallel sweep, and all warm rounds — not just
    statuses.
    """
    from .parallel import effective_jobs, sweep_seeds
    from .parallel import engine as engine_mod

    if jobs <= 0:
        jobs = os.cpu_count() or 1
    seeds = list(range(n_seeds))

    t0 = time.perf_counter()
    serial = sweep_seeds(program, seeds, jobs=1, keep_trace=keep_trace)
    serial_s = time.perf_counter() - t0

    engine_mod.shutdown_pool()
    t0 = time.perf_counter()
    parallel = sweep_seeds(program, seeds, jobs=jobs, keep_trace=keep_trace)
    parallel_cold_s = time.perf_counter() - t0

    stats_before = engine_mod.pool_stats()
    warm_s: List[float] = []
    warm_results: List[Any] = []
    for _ in range(max(1, warm_rounds)):
        t0 = time.perf_counter()
        warm_results.append(sweep_seeds(program, seeds, jobs=jobs,
                                        keep_trace=keep_trace))
        warm_s.append(time.perf_counter() - t0)
    stats_after = engine_mod.pool_stats()
    steady_s = warm_s[-1]

    identical = (serial == parallel
                 and all(r == serial for r in warm_results))
    return {
        "seeds": n_seeds,
        "jobs": jobs,
        "effective_jobs": effective_jobs(jobs, n_seeds),
        "serial_s": round(serial_s, 4),
        "parallel_cold_s": round(parallel_cold_s, 4),
        "steady_s": round(steady_s, 4),
        "speedup": round(serial_s / steady_s, 2) if steady_s else None,
        "cold_speedup": (round(serial_s / parallel_cold_s, 2)
                         if parallel_cold_s else None),
        "identical": identical,
        "pool_reuse": {
            "warm_rounds": len(warm_s),
            "warm_s": [round(s, 4) for s in warm_s],
            # A healthy engine creates zero new pools across the warm
            # rounds: the cold sweep's pool is reused.
            "pools_created": (stats_after["pools_created"]
                              - stats_before["pools_created"]),
            "dispatches": (stats_after["dispatches"]
                           - stats_before["dispatches"]),
            "serial_cutovers": (stats_after["serial_cutovers"]
                                - stats_before["serial_cutovers"]),
            "pool_alive": stats_after["pool_alive"],
        },
    }


# Fixed variants that explore to exhaustion quickly enough to benchmark,
# chosen across sub-causes (channel, channel+lock, message library, mutex,
# condition variable).  Savings on these are representative of the corpus.
EXPLORE_KERNELS = (
    "blocking-chan-cockroach-missing-case",
    "blocking-chan-etcd-error-path-no-send",
    "blocking-chanmix-docker-send-under-lock",
    "blocking-msglib-cockroach-ctx-no-cancel",
    "blocking-mutex-kubernetes-abba",
    "blocking-wait-kubernetes-cond-missed-signal",
)


def bench_explore(kernel_id: str, max_runs: int = 800) -> Dict[str, Any]:
    """Exploration to exhaustion on one kernel: raw tree vs pruned tree."""
    from .bugs import registry
    from .detect.systematic import explore_systematic

    kernel = registry.get(kernel_id)
    kwargs = dict(kernel.run_kwargs)
    t0 = time.perf_counter()
    base = explore_systematic(kernel.fixed, stop_on=kernel.manifested,
                              max_runs=max_runs, prune=False, **kwargs)
    base_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pruned = explore_systematic(kernel.fixed, stop_on=kernel.manifested,
                                max_runs=max_runs, prune=True, **kwargs)
    pruned_s = time.perf_counter() - t0
    saved_pct = (100.0 * (base.runs - pruned.runs) / base.runs
                 if base.runs else 0.0)
    return {
        "runs_unpruned": base.runs,
        "runs_pruned": pruned.runs,
        "saved_pct": round(saved_pct, 1),
        "branches_pruned": pruned.pruned,
        "unpruned_s": round(base_s, 4),
        "pruned_s": round(pruned_s, 4),
        "exhausted_unpruned": base.exhausted,
        "exhausted_pruned": pruned.exhausted,
        "verdict_match": (base.found == pruned.found
                          and (not base.exhausted or pruned.exhausted)),
    }


def run_explore_benchmarks(kernel_ids: Sequence[str] = EXPLORE_KERNELS,
                           max_runs: int = 800) -> Dict[str, Any]:
    """The ``explore`` section: per-kernel pruning savings + the rollup."""
    kernels = {kid: bench_explore(kid, max_runs=max_runs)
               for kid in kernel_ids}
    rows = list(kernels.values())
    return {
        "max_runs": max_runs,
        "kernels": kernels,
        "min_saved_pct": min(row["saved_pct"] for row in rows),
        "all_verdicts_match": all(row["verdict_match"] for row in rows),
    }


def run_predict_benchmarks(runs_per_kernel: int = 15,
                           triage_kernel_ids: Sequence[str] = EXPLORE_KERNELS,
                           max_runs: int = 800) -> Dict[str, Any]:
    """The ``predict`` section: offline-analysis quality and triage savings.

    Two claims are measured.  *Quality*: over the whole corpus, predict
    on one recorded (preferably passing) run vs the dynamic detectors
    over manifestation sweeps — recall, precision, and the offline
    analysis wall time.  *Savings*: on the bug-free exploration bench
    kernels, the triage screen (one recorded run) vs exploring the
    schedule tree to exhaustion — runs avoided when triage says skip,
    with the buggy variants as the no-false-skip control.
    """
    from .bugs import registry
    from .detect.systematic import explore_systematic
    from .predict import (build_predict_scorecard, predict_precision,
                          predict_recall, triage_kernel)

    t0 = time.perf_counter()
    rows = build_predict_scorecard(runs_per_kernel=runs_per_kernel)
    scorecard_s = time.perf_counter() - t0
    agreements: Dict[str, int] = {}
    for row in rows:
        agreements[row.agreement] = agreements.get(row.agreement, 0) + 1

    triage: Dict[str, Any] = {}
    false_skips = []
    for kid in triage_kernel_ids:
        kernel = registry.get(kid)
        kwargs = dict(kernel.run_kwargs)
        t0 = time.perf_counter()
        clean = triage_kernel(kernel, fixed=True)
        triage_s = time.perf_counter() - t0
        exploration = explore_systematic(
            kernel.fixed, stop_on=kernel.manifested, max_runs=max_runs,
            **kwargs)
        dirty = triage_kernel(kernel, fixed=False)
        if not dirty.needs_search:
            false_skips.append(kid)
        saved = exploration.runs - 1 if not clean.needs_search else 0
        triage[kid] = {
            "explore_runs": exploration.runs,
            "explore_exhausted": exploration.exhausted,
            "triage_clean": not clean.needs_search,
            "runs_saved": saved,
            "triage_s": round(triage_s, 4),
            "buggy_flagged": dirty.needs_search,
        }

    return {
        "scorecard": {
            "kernels": len(rows),
            "runs_per_kernel": runs_per_kernel,
            "recall": round(predict_recall(rows), 4),
            "precision": round(predict_precision(rows), 4),
            "agreements": agreements,
            "predict_wall_s": round(sum(r.predict_wall_s for r in rows), 4),
            "scorecard_wall_s": round(scorecard_s, 4),
        },
        "triage": {
            "max_runs": max_runs,
            "kernels": triage,
            "total_explore_runs": sum(row["explore_runs"]
                                      for row in triage.values()),
            "total_runs_saved": sum(row["runs_saved"]
                                    for row in triage.values()),
            "all_fixed_screened_clean": all(row["triage_clean"]
                                            for row in triage.values()),
            "false_skips": false_skips,
        },
    }


def run_static_benchmarks(triage_kernel_ids: Sequence[str] = EXPLORE_KERNELS,
                          max_runs: int = 800) -> Dict[str, Any]:
    """The ``static`` section: scan quality and sweep-triage savings.

    Mirrors the predict section one tier down: *quality* is the whole
    corpus (both variants) plus the mini-apps scored against the
    ground-truth taxonomy labels — no execution at all; *savings* is the
    static screen vs exploring the schedule tree to exhaustion on the
    bug-free exploration bench kernels, with the buggy variants as the
    no-false-skip control.  Unlike predict, a clean static verdict costs
    zero recorded runs, so it saves the whole exploration budget.
    """
    from .bugs import registry
    from .detect.systematic import explore_systematic
    from .static import (build_static_scorecard, checker_timings, scan_apps,
                         static_precision, static_recall, triage_kernel)

    t0 = time.perf_counter()
    rows = build_static_scorecard()
    scorecard_s = time.perf_counter() - t0
    apps = scan_apps()

    triage: Dict[str, Any] = {}
    false_skips = []
    for kid in triage_kernel_ids:
        kernel = registry.get(kid)
        kwargs = dict(kernel.run_kwargs)
        t0 = time.perf_counter()
        clean = triage_kernel(kernel, fixed=True)
        triage_s = time.perf_counter() - t0
        exploration = explore_systematic(
            kernel.fixed, stop_on=kernel.manifested, max_runs=max_runs,
            **kwargs)
        dirty = triage_kernel(kernel, fixed=False)
        if not dirty.needs_search:
            false_skips.append(kid)
        saved = exploration.runs if not clean.needs_search else 0
        triage[kid] = {
            "explore_runs": exploration.runs,
            "explore_exhausted": exploration.exhausted,
            "triage_clean": not clean.needs_search,
            "runs_saved": saved,
            "triage_s": round(triage_s, 4),
            "buggy_flagged": dirty.needs_search,
        }

    return {
        "scorecard": {
            "kernels": len(rows),
            "caught": sum(1 for r in rows if r.caught),
            "missed": [r.kernel_id for r in rows if not r.caught],
            "false_positives": [r.kernel_id for r in rows
                                if r.fixed_flagged and r.fixed_expected_clean],
            "recall": round(static_recall(rows), 4),
            "precision": round(static_precision(rows), 4),
            "scan_wall_s": round(sum(r.wall_ms for r in rows) / 1000, 4),
            "scorecard_wall_s": round(scorecard_s, 4),
            "checker_seconds": {k: round(v, 4)
                                for k, v in checker_timings(rows).items()},
            "apps_clean": not apps.found,
            "apps_wall_s": round(apps.wall_s, 4),
        },
        "triage": {
            "max_runs": max_runs,
            "kernels": triage,
            "total_explore_runs": sum(row["explore_runs"]
                                      for row in triage.values()),
            "total_runs_saved": sum(row["runs_saved"]
                                    for row in triage.values()),
            "all_fixed_screened_clean": all(row["triage_clean"]
                                            for row in triage.values()),
            "false_skips": false_skips,
        },
    }


def run_benchmarks(jobs: int = 0, repeats: int = 3,
                   sweep_seeds_n: int = 64,
                   explore: bool = True,
                   loadgen: bool = True) -> Dict[str, Any]:
    """The full document: single-run timings + sweep scaling + the
    100k-request load run + exploration."""
    single: Dict[str, Any] = {}
    for name, program in WORKLOADS.items():
        single[name] = {
            "fast": bench_single(program, keep_trace=False, repeats=repeats),
            "traced": bench_single(program, keep_trace=True, repeats=repeats),
        }
    document = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count(),
        "backend": next(iter(single.values()))["fast"]["backend"],
        "compiled": HAS_COMPILED,
        "single": single,
        "sweep": bench_sweep(pingpong, n_seeds=sweep_seeds_n, jobs=jobs),
    }
    if loadgen:
        document["loadgen100k"] = run_loadgen_fastpath()
    if explore:
        document["explore"] = run_explore_benchmarks()
    return document


def run_net_benchmarks(repeats: int = 3, loadgen_clients: int = 8,
                       loadgen_requests: int = 250) -> Dict[str, Any]:
    """The network document: fabric/RPC timings + a loadgen throughput row.

    The loadgen row runs twice on the same seed; ``deterministic`` asserts
    the two summaries (latency histogram, fabric stats, step count — all
    of it) came back identical.
    """
    from .net.demo import loadgen_summary

    single: Dict[str, Any] = {}
    for name, program in NET_WORKLOADS.items():
        single[name] = {
            "fast": bench_single(program, keep_trace=False, repeats=repeats),
            "traced": bench_single(program, keep_trace=True, repeats=repeats),
        }

    t0 = time.perf_counter()
    first = loadgen_summary(seed=1, clients=loadgen_clients,
                            requests=loadgen_requests)
    wall = time.perf_counter() - t0
    second = loadgen_summary(seed=1, clients=loadgen_clients,
                             requests=loadgen_requests)
    loadgen = {
        "clients": loadgen_clients,
        "requests": first["requests"],
        "steps": first["steps"],
        "virtual_s": first["virtual_s"],
        "rps_virtual": first["rps_virtual"],
        "wall_s": round(wall, 4),
        "requests_per_wall_s": round(first["requests"] / wall, 1) if wall else None,
        "steps_per_s": round(first["steps"] / wall, 1) if wall else None,
        "errors": first["errors"],
        "deterministic": first == second,
    }
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count(),
        "single": single,
        "loadgen": loadgen,
    }


def run_recovery_benchmarks(sizes: Sequence[int] = (3, 5),
                            seeds: Sequence[int] = tuple(range(4)),
                            max_steps: int = 600_000) -> Dict[str, Any]:
    """The recovery document: crash-recovery time distributions.

    Sweeps the durable, electing, supervised minietcd cluster across
    cluster sizes × two crash-fault rates (a single ``crash_restart`` and
    a recurring ``crash-storm``), recording per-cell convergence verdicts
    and the distribution of virtual-time recovery latency — how long
    after the crash the cluster was consistent and progressing again.
    """
    import statistics
    from functools import partial

    from .inject import plans
    from .inject.scenarios import net_etcd_recovery_scenario

    fault_plans = {
        "crash-restart": plans.crash_restart(delay=0.3),
        "crash-storm": plans.crash_storm(times=3, delay=0.3),
    }
    cells: Dict[str, Any] = {}
    for size in sizes:
        program = partial(net_etcd_recovery_scenario, size=size)
        for plan_name, plan in fault_plans.items():
            verdicts: Dict[str, int] = {}
            times: List[float] = []
            faults = 0
            t0 = time.perf_counter()
            for seed in seeds:
                result = run(program, seed=seed, inject=plan,
                             max_steps=max_steps)
                main = (result.main_result
                        if isinstance(result.main_result, dict) else {})
                verdict = main.get("verdict", result.status)
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
                faults += len(result.injected)
                if main.get("recovery_s") is not None:
                    times.append(main["recovery_s"])
            wall = time.perf_counter() - t0
            cells[f"size{size}/{plan_name}"] = {
                "size": size,
                "plan": plan_name,
                "seeds": len(list(seeds)),
                "faults_fired": faults,
                "verdicts": verdicts,
                "recovered": verdicts.get("recovered", 0),
                "recovery_s": (None if not times else {
                    "min": round(min(times), 4),
                    "median": round(statistics.median(times), 4),
                    "max": round(max(times), 4),
                    "mean": round(statistics.fmean(times), 4),
                    "samples": len(times),
                }),
                "wall_s": round(wall, 4),
            }
    return {
        "sizes": list(sizes),
        "seeds": len(list(seeds)),
        "plans": sorted(fault_plans),
        "cells": cells,
        "all_recovered": all(
            cell["recovered"] == cell["seeds"] for cell in cells.values()),
    }


def render(document: Dict[str, Any]) -> str:
    """Human-readable table of a benchmark document."""
    lines: List[str] = []
    header = (f"simulator benchmarks (python {document['python']}, "
              f"{document['cpus']} cpu(s)")
    if "backend" in document:
        hot = ("compiled hot loop" if document.get("compiled")
               else "pure hot loop")
        header += f", backend={document['backend']}, {hot}"
    lines.append(header + ")")
    if "single" in document:
        lines.append("")
        lines.append(f"{'workload':<14} {'fast ms/run':>12} "
                     f"{'fast steps/s':>14} "
                     f"{'traced ms/run':>14} {'traced steps/s':>15}")
        for name, row in document["single"].items():
            fast, traced = row["fast"], row["traced"]
            lines.append(f"{name:<14} {fast['ms_per_run']:>12.3f} "
                         f"{fast['steps_per_s']:>14,.0f} "
                         f"{traced['ms_per_run']:>14.3f} "
                         f"{traced['steps_per_s']:>15,.0f}")
    if "backends" in document:
        cmp_doc = document["backends"]
        lines.append("")
        lines.append("backend comparison (fast path, steps/s):")
        lines.append(f"{'workload':<14} {'thread':>12} {'coroutine':>12} "
                     f"{'speedup':>8} {'vehicle':>10} {'digests':>8}")
        for name, row in cmp_doc["workloads"].items():
            lines.append(
                f"{name:<14} {row['thread_steps_per_s']:>12,.0f} "
                f"{row['coroutine_steps_per_s']:>12,.0f} "
                f"{row['speedup']:>7.2f}x {row['coroutine_backend']:>10} "
                f"{'equal' if row['digests_equal'] else 'DIFFER':>8}")
        lines.append(f"  all schedule digests equal: "
                     f"{cmp_doc['all_digests_equal']}")
    if "sweep" in document:
        sweep = document["sweep"]
        lines.append("")
        if "steady_s" in sweep:
            reuse = sweep["pool_reuse"]
            lines.append(
                f"sweep: {sweep['seeds']} seeds, jobs=1 "
                f"{sweep['serial_s']:.2f}s vs jobs={sweep['jobs']} cold "
                f"{sweep['parallel_cold_s']:.2f}s / steady "
                f"{sweep['steady_s']:.4f}s (cold speedup "
                f"{sweep['cold_speedup']}x, steady {sweep['speedup']}x, "
                f"identical={sweep['identical']})")
            lines.append(
                f"  pool reuse: {reuse['warm_rounds']} warm rounds, "
                f"{reuse['pools_created']} new pools, "
                f"{reuse['dispatches']} dispatches, "
                f"pool_alive={reuse['pool_alive']}")
        else:  # schema 1 document
            lines.append(
                f"sweep: {sweep['seeds']} seeds, jobs=1 "
                f"{sweep['serial_s']:.2f}s vs jobs={sweep['jobs']} "
                f"{sweep['parallel_s']:.2f}s (speedup {sweep['speedup']}x, "
                f"effective workers {sweep['effective_jobs']}, "
                f"identical={sweep['identical']})")
    if "explore" in document:
        explore = document["explore"]
        lines.append("")
        lines.append(f"exploration pruning (to exhaustion, max_runs="
                     f"{explore['max_runs']}):")
        lines.append(f"{'kernel':<45} {'unpruned':>9} {'pruned':>7} "
                     f"{'saved':>7} {'verdicts':>9}")
        for kid, row in explore["kernels"].items():
            lines.append(
                f"{kid:<45} {row['runs_unpruned']:>9} "
                f"{row['runs_pruned']:>7} {row['saved_pct']:>6.1f}% "
                f"{'match' if row['verdict_match'] else 'MISMATCH':>9}")
        lines.append(f"  min saved {explore['min_saved_pct']:.1f}%, "
                     f"all verdicts match: {explore['all_verdicts_match']}")
    if "predict" in document:
        predict = document["predict"]
        card, triage = predict["scorecard"], predict["triage"]
        lines.append("")
        lines.append(
            f"predictive analysis ({card['kernels']} kernels, one "
            f"recorded run each): recall {card['recall']:.0%} / "
            f"precision {card['precision']:.0%} vs dynamic detectors, "
            f"offline analysis {card['predict_wall_s']:.2f}s total")
        lines.append(f"triage screen vs explore-to-exhaustion "
                     f"(max_runs={triage['max_runs']}):")
        lines.append(f"{'kernel':<45} {'explore':>8} {'triage':>7} "
                     f"{'saved':>6} {'buggy':>8}")
        for kid, row in triage["kernels"].items():
            lines.append(
                f"{kid:<45} {row['explore_runs']:>8} "
                f"{'clean' if row['triage_clean'] else 'FLAG':>7} "
                f"{row['runs_saved']:>6} "
                f"{'flagged' if row['buggy_flagged'] else 'MISSED':>8}")
        lines.append(f"  total runs saved {triage['total_runs_saved']}/"
                     f"{triage['total_explore_runs']}, false skips: "
                     f"{triage['false_skips'] or 'none'}")
    if "static" in document:
        static = document["static"]
        card, triage = static["scorecard"], static["triage"]
        lines.append("")
        lines.append(
            f"static analysis ({card['kernels']} kernels, both variants, "
            f"zero executions): recall {card['recall']:.0%} / precision "
            f"{card['precision']:.0%} vs ground-truth labels, full scan "
            f"{card['scan_wall_s']:.2f}s, mini-apps "
            f"{'clean' if card['apps_clean'] else 'FLAGGED'} "
            f"({card['apps_wall_s'] * 1000:.0f}ms)")
        checker_text = " ".join(
            f"{stage}:{secs:.2f}s" for stage, secs
            in sorted(card["checker_seconds"].items()))
        lines.append(f"  per-stage wall: {checker_text}")
        if card["missed"] or card["false_positives"]:
            lines.append(f"  missed: {card['missed'] or 'none'}, "
                         f"false positives: "
                         f"{card['false_positives'] or 'none'}")
        lines.append(f"static screen vs explore-to-exhaustion "
                     f"(max_runs={triage['max_runs']}):")
        lines.append(f"{'kernel':<45} {'explore':>8} {'static':>7} "
                     f"{'saved':>6} {'buggy':>8}")
        for kid, row in triage["kernels"].items():
            lines.append(
                f"{kid:<45} {row['explore_runs']:>8} "
                f"{'clean' if row['triage_clean'] else 'FLAG':>7} "
                f"{row['runs_saved']:>6} "
                f"{'flagged' if row['buggy_flagged'] else 'MISSED':>8}")
        lines.append(f"  total runs saved {triage['total_runs_saved']}/"
                     f"{triage['total_explore_runs']}, false skips: "
                     f"{triage['false_skips'] or 'none'}")
    if "loadgen" in document:
        lg = document["loadgen"]
        lines.append("")
        lines.append(
            f"loadgen: {lg['requests']} requests from {lg['clients']} "
            f"client(s) in {lg['wall_s']:.2f}s wall "
            f"({lg['requests_per_wall_s']:,.0f} req/s wall, "
            f"{lg['rps_virtual']:,.0f} req/s virtual, errors={lg['errors']}, "
            f"deterministic={lg['deterministic']})")
    if "loadgen100k" in document:
        lg = document["loadgen100k"]
        lines.append("")
        lines.append(
            f"loadgen 100k: {lg['requests']:,} requests from "
            f"{lg['clients']} client(s), compiled {lg['compiled_wall_s']:.2f}s"
            f" vs pure {lg['pure_wall_s']:.2f}s wall "
            f"({lg['speedup']}x, {lg['requests_per_wall_s']:,.0f} req/s, "
            f"{lg['steps_per_s']:,.0f} steps/s, errors={lg['errors']}, "
            f"deterministic={lg['deterministic']})")
    if "recovery" in document:
        recovery = document["recovery"]
        lines.append("")
        lines.append(f"crash recovery ({recovery['seeds']} seed(s) per "
                     f"cell; recovery_s is virtual time to consistent + "
                     f"progressing):")
        lines.append(f"{'cell':<24} {'recovered':>10} {'verdicts':<34} "
                     f"{'median s':>9} {'max s':>8} {'wall s':>8}")
        for name, cell in recovery["cells"].items():
            verdict_text = " ".join(f"{k}:{v}" for k, v
                                    in sorted(cell["verdicts"].items()))
            dist = cell["recovery_s"]
            lines.append(
                f"{name:<24} {cell['recovered']}/{cell['seeds']:<8} "
                f"{verdict_text:<34} "
                f"{dist['median'] if dist else '-':>9} "
                f"{dist['max'] if dist else '-':>8} "
                f"{cell['wall_s']:>8.2f}")
        lines.append(f"  all recovered: {recovery['all_recovered']}")
    return "\n".join(lines)


def _delta(current: Optional[float], baseline: Optional[float]) -> str:
    if not current or not baseline:
        return "n/a"
    pct = 100.0 * (current - baseline) / baseline
    return f"{pct:+.1f}%"


def render_delta(current: Dict[str, Any], baseline: Dict[str, Any]) -> str:
    """Baseline-vs-current table: where did this run move the numbers?

    Tolerates a schema-1 baseline (no steady-state sweep, no explore
    section) so CI keeps printing deltas across the schema bump.
    """
    lines: List[str] = []
    lines.append(f"delta vs baseline (baseline schema "
                 f"{baseline.get('schema')}, current schema "
                 f"{current.get('schema')}; negative ms = faster)")
    base_single = baseline.get("single", {})
    if "single" in current and base_single:
        lines.append(f"{'workload':<14} {'fast ms':>9} {'base':>9} "
                     f"{'delta':>8} {'traced ms':>10} {'base':>9} {'delta':>8}")
        for name, row in current["single"].items():
            if name not in base_single:
                continue
            base_row = base_single[name]
            fast, bfast = row["fast"], base_row["fast"]
            traced, btraced = row["traced"], base_row["traced"]
            lines.append(
                f"{name:<14} {fast['ms_per_run']:>9.3f} "
                f"{bfast['ms_per_run']:>9.3f} "
                f"{_delta(fast['ms_per_run'], bfast['ms_per_run']):>8} "
                f"{traced['ms_per_run']:>10.3f} "
                f"{btraced['ms_per_run']:>9.3f} "
                f"{_delta(traced['ms_per_run'], btraced['ms_per_run']):>8}")
    if "sweep" in current and "sweep" in baseline:
        sweep, bsweep = current["sweep"], baseline["sweep"]
        base_speedup = bsweep.get("cold_speedup")
        lines.append(
            f"sweep cold speedup: {sweep.get('cold_speedup')}x vs "
            f"{base_speedup}x "
            f"baseline (serial {sweep.get('serial_s')}s vs "
            f"{bsweep.get('serial_s')}s, "
            f"{_delta(sweep.get('serial_s'), bsweep.get('serial_s'))})")
    if "explore" in current:
        explore = current["explore"]
        bexplore = baseline.get("explore")
        if bexplore:
            lines.append(
                f"explore min saved: {explore['min_saved_pct']:.1f}% vs "
                f"{bexplore['min_saved_pct']:.1f}% baseline; verdicts "
                f"match: {explore['all_verdicts_match']}")
        else:
            lines.append(
                f"explore min saved: {explore['min_saved_pct']:.1f}% "
                "(no baseline section)")
    return "\n".join(lines)


def check_regression(current: Dict[str, Any], baseline: Dict[str, Any],
                     threshold_pct: float = 20.0) -> List[str]:
    """Throughput drops beyond ``threshold_pct`` vs the committed baseline.

    Compares ``steps_per_s`` for every single-run cell (fast and traced)
    present in both documents and returns one human-readable line per
    regression; an empty list means nothing dropped past the threshold.
    Cells whose recorded backend differs between the documents are still
    compared — the committed baseline is the number users actually get,
    whatever vehicle produced it — but the line says so.
    """
    regressions: List[str] = []
    base_single = baseline.get("single", {})
    for name, row in current.get("single", {}).items():
        base_row = base_single.get(name)
        if not base_row:
            continue
        for cell in ("fast", "traced"):
            cur, base = row[cell], base_row[cell]
            cur_sps, base_sps = cur["steps_per_s"], base["steps_per_s"]
            if not base_sps or cur_sps >= base_sps * (1 - threshold_pct / 100):
                continue
            drop = 100.0 * (base_sps - cur_sps) / base_sps
            note = ""
            cur_b, base_b = cur.get("backend"), base.get("backend")
            if base_b is not None and cur_b != base_b:
                note = f" (backend {base_b} -> {cur_b})"
            regressions.append(
                f"{name}/{cell}: {cur_sps:,.0f} steps/s vs baseline "
                f"{base_sps:,.0f} (-{drop:.1f}%, threshold "
                f"{threshold_pct:.0f}%){note}")
    return regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="simulator performance benchmarks (single-run fast path "
                    "+ parallel sweep scaling + exploration pruning)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="workers for the sweep benchmark "
                             "(default: all cpus)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timing repeats per workload; best is kept "
                             "(default: 3)")
    parser.add_argument("--sweep-seeds", type=int, default=64, metavar="N",
                        help="seeds in the sweep benchmark (default: 64)")
    parser.add_argument("--net", action="store_true",
                        help="run the network benchmarks (fabric round "
                             "trips, RPC echo, loadgen throughput) instead")
    parser.add_argument("--explore", action="store_true",
                        help="run only the exploration-pruning benchmarks "
                             "(runs to exhaustion, pruned vs unpruned)")
    parser.add_argument("--recovery", action="store_true",
                        help="run the crash-recovery benchmarks (recovery "
                             "time under cluster-size x fault-rate sweep) "
                             "instead")
    parser.add_argument("--predict", action="store_true",
                        help="run the predictive-analysis benchmarks "
                             "(offline scorecard vs dynamic detectors + "
                             "triage savings) instead")
    parser.add_argument("--static", action="store_true",
                        help="run the static-analysis benchmarks instead "
                             "(scorecard vs ground-truth labels + triage "
                             "savings; baseline: BENCH_static.json)")
    parser.add_argument("--compare-backends", action="store_true",
                        help="run only the backend comparison (thread "
                             "compatibility mode vs the coroutine default, "
                             "steps/s side by side + schedule-digest "
                             "equality) instead")
    parser.add_argument("--baseline", metavar="FILE",
                        help="print a delta table against a committed "
                             "benchmark document (e.g. BENCH_simulator.json)")
    parser.add_argument("--guard", metavar="FILE",
                        help="exit 1 when any single-run cell's steps/s "
                             "dropped more than --guard-threshold vs FILE "
                             "(CI runs this non-gating)")
    parser.add_argument("--guard-threshold", type=float, default=20.0,
                        metavar="PCT",
                        help="regression threshold for --guard, percent "
                             "(default: 20)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON document instead of the table")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the JSON document to FILE")
    args = parser.parse_args(argv)

    if args.net:
        document = run_net_benchmarks(repeats=args.repeats)
    elif args.recovery:
        document = {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count(),
            "recovery": run_recovery_benchmarks(),
        }
    elif args.explore:
        document = {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count(),
            "explore": run_explore_benchmarks(),
        }
    elif args.predict:
        document = {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count(),
            "predict": run_predict_benchmarks(),
        }
    elif args.static:
        document = {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count(),
            "static": run_static_benchmarks(),
        }
    elif args.compare_backends:
        backends = run_backend_comparison(repeats=args.repeats)
        document = {
            "schema": SCHEMA,
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count(),
            "backend": next(iter(backends["workloads"].values()))
                       ["coroutine_backend"],
            "compiled": HAS_COMPILED,
            "backends": backends,
        }
    else:
        document = run_benchmarks(jobs=args.jobs, repeats=args.repeats,
                                  sweep_seeds_n=args.sweep_seeds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render(document))
        if args.out:
            print(f"\nwrote {args.out}")
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"\nbaseline {args.baseline} unreadable: {exc}")
        else:
            print()
            print(render_delta(document, baseline))
    if args.guard:
        try:
            with open(args.guard, "r", encoding="utf-8") as handle:
                guard_baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"\nguard baseline {args.guard} unreadable: {exc}")
            return 1
        regressions = check_regression(document, guard_baseline,
                                       threshold_pct=args.guard_threshold)
        if regressions:
            print(f"\nperf regression guard ({args.guard}):")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"\nperf regression guard: ok "
              f"(no cell down >{args.guard_threshold:.0f}% vs {args.guard})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
