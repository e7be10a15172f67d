"""Exploration pruning: fewer runs to exhaustion, identical verdicts.

Not a paper table — this guards the systematic explorer's sleep-set
pruning (:mod:`repro.detect.systematic`) the way
``bench_simulator_perf`` guards the scheduler fast path.  The same
measurements back ``repro bench
--explore``, whose JSON lands in the committed ``BENCH_simulator.json``
baseline under the ``explore`` section.

The acceptance bar it enforces: on at least three corpus kernels the
pruned exploration reaches exhaustion in >=30% fewer runs than the raw
tree, with the same exhaustion verdict — and on every buggy variant it
still finds the counterexample the unpruned explorer finds.
"""

from repro.bench import EXPLORE_KERNELS, run_explore_benchmarks
from repro.bugs import registry
from repro.detect.systematic import explore_systematic


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
