"""Crash-recovery benchmark: verdicts and recovery-time distributions.

The durable, electing, supervised minietcd cluster is swept across
cluster sizes × crash-fault rates (one ``crash_restart``, one rolling
``crash-storm``).  Two claims:

1. Every cell recovers: after the fault window the cluster is consistent
   and progressing again within the virtual-time budget — no ``stuck``
   (liveness) or ``diverged`` (safety) verdicts anywhere in the sweep.

2. Recovery time is bounded and measured: each cell reports the
   distribution of virtual seconds from the start of the verdict watch
   to the first consistent-and-progressing poll.
"""

import statistics
import time
from functools import partial
from typing import Any, Dict, List, Sequence

from repro import run
from repro.inject import ChaosHarness, plans, recovery_targets
from repro.inject.scenarios import net_etcd_recovery_scenario

SIZES = (3, 5)
SEEDS = (0, 1, 2)


def run_recovery_benchmarks(sizes: Sequence[int] = (3, 5),
                            seeds: Sequence[int] = tuple(range(4)),
                            max_steps: int = 600_000) -> Dict[str, Any]:
    """Crash-recovery time distributions.

    Sweeps the durable, electing, supervised minietcd cluster across
    cluster sizes × two crash-fault rates (a single ``crash_restart`` and
    a recurring ``crash-storm``), recording per-cell convergence verdicts
    and the distribution of virtual-time recovery latency — how long
    after the crash the cluster was consistent and progressing again.
    """
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


def _table(doc):
    lines = [f"{'cell':<24} {'recovered':>9} {'faults':>6} "
             f"{'median recovery_s':>18} {'max':>8}"]
    for name, cell in doc["cells"].items():
        dist = cell["recovery_s"] or {}
        lines.append(
            f"{name:<24} {cell['recovered']:>4}/{cell['seeds']:<4} "
            f"{cell['faults_fired']:>6} "
            f"{dist.get('median', '-')!s:>18} {dist.get('max', '-')!s:>8}")
    lines.append(f"all recovered: {doc['all_recovered']}")
    return "\n".join(lines)


def test_recovery_sweep(benchmark, report):
    doc = benchmark.pedantic(
        lambda: run_recovery_benchmarks(sizes=SIZES, seeds=SEEDS),
        rounds=1, iterations=1)
    report("Crash recovery sweep", _table(doc))

    assert set(doc["cells"]) == {
        f"size{s}/{p}" for s in SIZES for p in ("crash-restart",
                                                "crash-storm")}
    # Claim 1: every seed in every cell converges to "recovered".
    assert doc["all_recovered"], doc["cells"]
    # The sweep actually crashed machines (storm cells crash 3 each).
    assert all(cell["faults_fired"] > 0 for cell in doc["cells"].values())
    # Claim 2: recovery times were measured and are finite.
    for cell in doc["cells"].values():
        dist = cell["recovery_s"]
        assert dist is not None and dist["samples"] == len(SEEDS)
        assert 0.0 < dist["max"] <= 8.0  # within the scenario budget


def test_recovery_scorecard(benchmark, report):
    """The harness view: recovery scenarios under the crash suite show a
    non-zero Recovered column and nothing in Diverged/Stuck."""
    harness = ChaosHarness(seeds=range(3))
    suite = [plans.crash_restart(delay=0.3), plans.crash_storm()]

    cells = benchmark.pedantic(
        lambda: harness.sweep(recovery_targets(), plans=suite),
        rounds=1, iterations=1)
    report("Chaos recovery scorecard", harness.scorecard(cells))

    assert len(cells) == 2 * (1 + len(suite))  # two scenarios x plans
    dirty = [cell for cell in cells if not cell.clean]
    assert not dirty, [(c.target, c.plan, c.failures) for c in dirty]
    recovered = sum(cell.verdicts.get("recovered", 0) for cell in cells)
    assert recovered == sum(sum(c.verdicts.values()) for c in cells)
    assert recovered > 0
