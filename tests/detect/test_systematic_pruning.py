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
from repro.detect import systematic
from repro.detect.annotate import PickAnnotations
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


# ----------------------------------------------------------------------
# The explorer builds only the annotations a pruning decision reads
# ----------------------------------------------------------------------

def _oracle_expand(self, work, log, picks_by_pos, skippable=None):
    """``_Explorer._expand`` as it was when it looked up the annotation
    at every position.  ``skippable``, when given, collects the positions
    where the sleep set was empty and no branch was possible: the ones
    the explorer now passes without building an annotation."""
    prefix = work.prefix
    limit = min(len(log), self.max_branch_depth)
    takens = [taken for _n, taken in log]
    ns = [n for n, _taken in log]
    cur = list(work.sleep)
    governing_sleep = tuple(work.sleep)
    governing_pos = work.filter_from
    for q in range(work.filter_from, limit):
        n, taken = log[q]
        if skippable is not None and not cur and \
                not (q >= len(prefix) and n > 1):
            skippable.add(q)
        ann = picks_by_pos.get(q)
        branchable = q >= len(prefix)
        if ann is None:
            if branchable and n > 1:
                base = takens[:q]
                expected = tuple(ns[:q + 1])
                for alternative in range(n - 1, -1, -1):
                    if alternative != taken:
                        self.stack.append(systematic._Work(
                            base + [alternative], governing_sleep, None,
                            governing_pos, expected))
            continue
        gid_taken = ann.gids[ann.chosen]
        sleeping = {gid for gid, _ in cur}
        asleep = gid_taken in sleeping
        if asleep:
            self.pruned += 1
        if branchable and n > 1:
            pending = []
            for alternative in range(n - 1, -1, -1):
                if alternative == taken:
                    continue
                if ann.gids[alternative] in sleeping:
                    self.pruned += 1
                    continue
                pending.append(alternative)
            if pending:
                first = None if asleep or ann.poisoned \
                    else (gid_taken, ann.tokens)
                node = systematic._Node(takens[:q], q, tuple(cur), pending,
                                        first, tuple(ns[:q + 1]))
                self._push_next(node)
        if asleep:
            return
        governing_sleep = tuple(cur)
        governing_pos = q
        if ann.poisoned:
            cur = []
        else:
            tokens = ann.tokens
            cur = [(gid, fp) for gid, fp in cur
                   if gid != gid_taken and fp.isdisjoint(tokens)]


class _OracleExplorer(systematic._Explorer):
    _expand = _oracle_expand


def _fields(found):
    result = found.counterexample_result
    return (found.runs, found.exhausted, found.counterexample,
            found.statuses, found.runs_saved, found.pruned,
            found.divergences, found.divergence_events, found.max_depth,
            None if result is None else (result.status, result.steps))


def _explore_both_ways(monkeypatch, program, **kwargs):
    """The exploration with the explorer as it is and with the oracle."""
    found = explore_systematic(program, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(systematic, "_Explorer", _OracleExplorer)
        oracle = explore_systematic(program, **kwargs)
    return _fields(found), _fields(oracle)


@pytest.mark.parametrize("mode", ["stop_on", "capped"])
def test_explorations_match_the_every_position_oracle(monkeypatch, mode):
    moved = []
    for kernel in CORPUS:
        for variant in ("buggy", "fixed"):
            kwargs = dict(kernel.run_kwargs)
            if mode == "stop_on":
                kwargs.update(stop_on=kernel.manifested, max_runs=60)
            else:
                kwargs.update(max_runs=40)
            found, oracle = _explore_both_ways(
                monkeypatch, getattr(kernel, variant), **kwargs)
            if found != oracle:
                moved.append(f"{kernel.meta.kernel_id}[{variant}]")
    assert not moved, f"exploration differs from the oracle: {moved}"


def test_no_annotation_is_built_at_a_skippable_position(monkeypatch):
    # Per run (numbered in visiting order), ``_expand`` must look up
    # exactly the oracle's positions minus those with an empty sleep set
    # and no branch.  (The lookup of the pick that branched the run, in
    # ``_report_to_node``, is another reader and is not counted.)
    lookups = {"new": set(), "oracle": set()}
    skippable = set()
    state = {"run": 0, "into": None}
    original_get = PickAnnotations.get

    def counting_get(self, position):
        if state["into"] is not None:
            lookups[state["into"]].add((state["run"], position))
        return original_get(self, position)

    class Counting(systematic._Explorer):
        def process(self, work, log, status, hit, picks, clamps):
            state["run"] = self.runs
            super().process(work, log, status, hit, picks, clamps)

        def _expand(self, work, log, picks_by_pos):
            state["into"] = "new"
            try:
                super()._expand(work, log, picks_by_pos)
            finally:
                state["into"] = None

    class CountingOracle(Counting):
        def _expand(self, work, log, picks_by_pos):
            positions = set()
            state["into"] = "oracle"
            try:
                _oracle_expand(self, work, log, picks_by_pos, positions)
            finally:
                state["into"] = None
            skippable.update((state["run"], q) for q in positions)

    monkeypatch.setattr(PickAnnotations, "get", counting_get)
    built = skipped = 0
    for kernel in CORPUS:
        for explorer in (Counting, CountingOracle):
            monkeypatch.setattr(systematic, "_Explorer", explorer)
            explore_systematic(kernel.fixed, stop_on=kernel.manifested,
                               max_runs=60, **kernel.run_kwargs)
        assert lookups["new"].isdisjoint(skippable), kernel.meta.kernel_id
        assert lookups["new"] == lookups["oracle"] - skippable, \
            kernel.meta.kernel_id
        built += len(lookups["new"])
        skipped += len(skippable & lookups["oracle"])
        for positions in (lookups["new"], lookups["oracle"], skippable):
            positions.clear()
    # Not vacuous: both kinds of position occur.
    assert built > 0 and skipped > 0
