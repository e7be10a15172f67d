"""Exploration pruning: fewer runs to exhaustion, identical verdicts.

Not a paper table — this guards the systematic explorer's sleep-set
pruning (:mod:`repro.detect.systematic`).  perfbench's explore-exhaust
workload times the explorer; this file checks what the pruning buys.

The acceptance bar it enforces: on at least three corpus kernels the
pruned exploration reaches exhaustion in >=30% fewer runs than the raw
tree, with the same exhaustion verdict — and on every buggy variant it
still finds the counterexample the unpruned explorer finds.
"""

import time
from typing import Any, Dict, Sequence

from repro.bench import EXPLORE_KERNELS
from repro.bugs import registry
from repro.detect.systematic import explore_systematic


def bench_explore(kernel_id: str, max_runs: int = 800) -> Dict[str, Any]:
    """Exploration to exhaustion on one kernel: raw tree vs pruned tree."""
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
    """Per-kernel pruning savings + the rollup."""
    kernels = {kid: bench_explore(kid, max_runs=max_runs)
               for kid in kernel_ids}
    rows = list(kernels.values())
    return {
        "max_runs": max_runs,
        "kernels": kernels,
        "min_saved_pct": min(row["saved_pct"] for row in rows),
        "all_verdicts_match": all(row["verdict_match"] for row in rows),
    }


def test_pruning_savings_and_verdicts(report):
    document = run_explore_benchmarks(max_runs=800)
    rows = document["kernels"]

    lines = [f"{'kernel':<45} {'unpruned':>9} {'pruned':>7} {'saved':>7}"]
    for kid, row in rows.items():
        lines.append(f"{kid:<45} {row['runs_unpruned']:>9} "
                     f"{row['runs_pruned']:>7} {row['saved_pct']:>6.1f}%")
    lines.append(f"min saved {document['min_saved_pct']:.1f}%  "
                 f"verdicts match: {document['all_verdicts_match']}")
    report("Exploration pruning: runs to exhaustion", "\n".join(lines))

    assert document["all_verdicts_match"]
    big_savers = [row for row in rows.values() if row["saved_pct"] >= 30.0]
    assert len(big_savers) >= 3, (
        f"expected >=30% savings on >=3 kernels, got {len(big_savers)}")


def test_pruned_explorer_still_finds_the_bugs(report):
    """Counterexample parity on the buggy variants of the bench kernels."""
    lines = []
    for kid in EXPLORE_KERNELS:
        kernel = registry.get(kid)
        base = explore_systematic(
            kernel.buggy, stop_on=kernel.manifested, max_runs=200,
            prune=False, **kernel.run_kwargs)
        pruned = explore_systematic(
            kernel.buggy, stop_on=kernel.manifested, max_runs=200,
            prune=True, **kernel.run_kwargs)
        lines.append(f"{kid:<45} unpruned run {base.runs}, "
                     f"pruned run {pruned.runs}")
        assert base.found and pruned.found, kid
    report("Exploration pruning: counterexamples preserved", "\n".join(lines))
