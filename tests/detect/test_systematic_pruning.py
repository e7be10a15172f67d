"""Sleep-set pruning is invisible in verdicts, over the whole corpus.

Pruning claims an equivalence: every schedule it skips only reorders
commuting transitions of a schedule it ran, so counterexamples and
exhaustion verdicts must come out exactly as in the raw tree — on all 54
kernels, not a curated subset.  Budgets are bounded so the whole file
stays in tier-1 time; the deeper 800-run comparison lives in
``benchmarks/bench_explore_pruning.py``.
"""

import pytest

from repro.bugs import registry
from repro.detect.systematic import explore_systematic

CORPUS = list(registry.all_kernels())


def test_counterexample_parity_over_corpus():
    # Wherever the raw tree finds the bug within budget, the pruned tree
    # must find it too (possibly via a different equivalent schedule).
    missed = []
    for kernel in CORPUS:
        base = explore_systematic(
            kernel.buggy, stop_on=kernel.manifested, max_runs=80,
            prune=False, **kernel.run_kwargs)
        pruned = explore_systematic(
            kernel.buggy, stop_on=kernel.manifested, max_runs=80,
            prune=True, **kernel.run_kwargs)
        if base.found and not pruned.found:
            missed.append(kernel.meta.kernel_id)
        if pruned.found:
            assert kernel.manifested(pruned.counterexample_result)
    assert not missed, f"pruning lost counterexamples: {missed}"


def test_exhaustion_verdicts_match_over_corpus():
    # On the fixed programs the question is the verdict: pruning may never
    # turn "exhausted, no bug" into anything weaker, and must agree on
    # found/not-found at equal budgets.  It should also genuinely save
    # work somewhere, or it is dead weight.
    regressions, savers = [], 0
    for kernel in CORPUS:
        base = explore_systematic(
            kernel.fixed, stop_on=kernel.manifested, max_runs=100,
            prune=False, **kernel.run_kwargs)
        pruned = explore_systematic(
            kernel.fixed, stop_on=kernel.manifested, max_runs=100,
            prune=True, **kernel.run_kwargs)
        if base.found != pruned.found:
            regressions.append(kernel.meta.kernel_id)
        if base.exhausted and not pruned.exhausted:
            regressions.append(kernel.meta.kernel_id)
        if base.exhausted and pruned.exhausted and pruned.runs < base.runs:
            savers += 1
    assert not regressions, f"verdict changed under pruning: {regressions}"
    assert savers >= 3


@pytest.mark.parametrize("kernel_id", [
    "blocking-chan-cockroach-missing-case",
    "blocking-chan-etcd-error-path-no-send",
    "blocking-mutex-kubernetes-abba",
])
def test_default_flags_match_unpruned_verdict(kernel_id):
    # The defaults (prune=True) across two rounds give the unpruned
    # verdict both times.
    kernel = registry.get(kernel_id)
    base = explore_systematic(
        kernel.fixed, stop_on=kernel.manifested, max_runs=300,
        prune=False, **kernel.run_kwargs)
    first = explore_systematic(kernel.fixed, stop_on=kernel.manifested,
                               max_runs=300, **kernel.run_kwargs)
    second = explore_systematic(kernel.fixed, stop_on=kernel.manifested,
                                max_runs=300, **kernel.run_kwargs)
    for exploration in (first, second):
        assert exploration.found == base.found
        assert exploration.exhausted >= base.exhausted
    assert first.pruned > 0
    assert second.runs == first.runs


def test_stats_expose_the_savings():
    kernel = registry.get("blocking-chan-cockroach-missing-case")
    exploration = explore_systematic(
        kernel.fixed, stop_on=kernel.manifested, max_runs=300,
        **kernel.run_kwargs)
    stats = exploration.to_stats()
    assert stats["runs"] == exploration.runs
    assert stats["pruned"] == exploration.pruned > 0
    for key in ("runs", "exhausted", "divergences", "max_depth", "wall_s"):
        assert key in stats


def test_untraced_exploration_matches_traced_over_corpus():
    # Footprints come from the run's event records, which a
    # ``keep_trace=False`` run does not keep for its result.  The pruning
    # must still see every segment's footprint: an empty one would let it
    # skip schedules that do not commute, and change the exploration.
    moved = []
    for kernel in CORPUS:
        for variant in ("buggy", "fixed"):
            outcomes = []
            for keep_trace in (True, False):
                kwargs = dict(kernel.run_kwargs, keep_trace=keep_trace)
                found = explore_systematic(
                    getattr(kernel, variant), stop_on=kernel.manifested,
                    max_runs=60, **kwargs)
                outcomes.append((found.runs, found.pruned, found.exhausted,
                                 found.counterexample, found.statuses,
                                 found.divergences, found.max_depth))
            if outcomes[0] != outcomes[1]:
                moved.append(f"{kernel.meta.kernel_id}[{variant}]")
    assert not moved, f"keep_trace=False changed exploration: {moved}"
