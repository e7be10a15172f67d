"""Systematic schedule exploration — bounded stateless model checking.

Random seed sweeps (the paper's "run the buggy program a lot of times")
can miss rare interleavings; Implication 4 asks for *novel blocking bug
detection techniques*.  This module is the classic systematic answer:
every source of scheduling nondeterminism in a run is a sequence of
``randrange(n)`` draws, so a schedule **is** a list of choice indices.
The explorer runs the program under scripted choices and enumerates the
tree of schedules depth-first:

* each run records its choice log ``(n, taken)`` per decision point;
* every untried alternative at every decision point becomes a new prefix
  to explore (beyond the prefix, choices default to index 0, keeping the
  suffix deterministic);
* exploration stops at a counterexample (``stop_on``), at ``max_runs``,
  or when the tree is exhausted — in which case the program is *verified*
  over all schedules within the depth bound.

Most schedules differ only in the order of *commuting* steps, so the raw
tree is massively redundant.  **Sleep-set pruning** (``prune=True``, the
default) shrinks the work without shrinking coverage.  The scheduler
reports, per decision, which goroutines were offered and what the chosen
one then touched (:mod:`repro.detect.annotate`).  After exploring a branch,
its first transition goes to "sleep" for the sibling branches: inside a
sibling's subtree that same transition is skipped until some dependent
step (overlapping footprint) wakes it, because taking it sooner only
reorders independent steps.  This is the classic sleep-set reduction
(Godefroid): it prunes redundant *interleavings* while still visiting
every reachable program state, so exhaustion verdicts and the set of
reachable outcomes (deadlocks, panics, wrong values) are preserved.
Anything the footprint cannot fully describe — blocked attempts, selects,
timers, injected faults — poisons its segment and disables the pruning it
would have justified, keeping the rule conservative.

For small programs exhaustion is reachable and gives a real guarantee;
for larger ones the explorer is a directed bug-finder that needs no luck.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime.runtime import RunResult, run
from .annotate import ChoiceAnnotator, PickAnnotation


class ScriptedChoices:
    """A ``randrange`` source replaying a fixed prefix, then picking 0.

    A prefix entry can exceed the live range when the program is
    nondeterministic w.r.t. its schedule (its decision structure changed
    between the recording run and this replay).  The draw is clamped to
    ``n - 1`` as before, but the mismatch is recorded in
    :attr:`divergences` — a clamped replay explores a *different* subtree
    than the one it was branched from, and the explorer must know.
    """

    def __init__(self, prefix: Sequence[int] = ()):
        self.prefix = list(prefix)
        self.log: List[Tuple[int, int]] = []
        #: ``(position, intended, n)`` per clamped draw.
        self.divergences: List[Tuple[int, int, int]] = []

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)

    def randrange(self, n: int) -> int:
        position = len(self.log)
        if position < len(self.prefix):
            intended = self.prefix[position]
            choice = intended if intended < n else n - 1
            if choice != intended:
                self.divergences.append((position, intended, n))
        else:
            choice = 0
        self.log.append((n, choice))
        return choice


@dataclass
class Exploration:
    """Outcome of a systematic exploration."""

    runs: int
    exhausted: bool                      # whole bounded tree covered
    counterexample: Optional[List[int]] = None
    counterexample_result: Optional[RunResult] = None
    statuses: dict = field(default_factory=dict)
    #: Always 0; kept only because perfbench/workloads.py reads it.
    runs_saved: int = 0
    #: Sibling branches skipped by sleep-set pruning.
    pruned: int = 0
    #: Runs whose scripted replay diverged from the recorded schedule
    #: (nondeterministic program); their subtrees are not expanded.
    divergences: int = 0
    #: Individual clamped draws behind the count: ``(position, intended,
    #: n)`` per divergence recorded by :class:`ScriptedChoices`, capped
    #: at :data:`_MAX_DIVERGENCE_EVENTS` across the exploration.
    divergence_events: List[Tuple[int, int, int]] = field(
        default_factory=list)
    #: Longest choice log observed (depth of the explored tree).
    max_depth: int = 0
    #: Wall-clock seconds spent exploring.
    wall_s: float = 0.0

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    def to_stats(self) -> Dict[str, Any]:
        """The ``--stats`` payload: work accounting next to the verdict."""
        return {
            "runs": self.runs,
            "pruned": self.pruned,
            "divergences": self.divergences,
            "divergence_events": [list(event)
                                  for event in self.divergence_events],
            "max_depth": self.max_depth,
            "wall_s": round(self.wall_s, 4),
            "exhausted": self.exhausted,
            "found": self.found,
            "statuses": dict(self.statuses),
        }

    def _extras(self) -> str:
        parts = []
        if self.pruned:
            parts.append(f"{self.pruned} branches pruned")
        if self.divergences:
            parts.append(f"{self.divergences} replay divergences")
        return f" [{', '.join(parts)}]" if parts else ""

    def __str__(self) -> str:
        if self.found:
            return (f"counterexample after {self.runs} runs: "
                    f"schedule {self.counterexample} -> "
                    f"{self.counterexample_result.status}{self._extras()}")
        verdict = "exhausted: property holds on every schedule" \
            if self.exhausted else "bound reached without a counterexample"
        return (f"{self.runs} runs, {verdict} "
                f"(statuses: {self.statuses}){self._extras()}")


def _explore_unit(
    program: Callable,
    prefix: List[int],
    stop_on: Optional[Callable[[RunResult], bool]],
    run_kwargs: dict,
    annotate: bool,
) -> Tuple[List[Tuple[int, int]], Any, bool,
           Optional[List[PickAnnotation]], List[Tuple[int, int, int]]]:
    """One scheduled run of one prefix; picklable outcome for sweep workers.

    Returns ``(choice log, result-or-summary, stop hit, pick annotations,
    clamp divergences)``.  The full :class:`RunResult` cannot cross a
    process boundary, so workers reduce it to a
    :class:`repro.parallel.RunSummary`; ``stop_on`` is evaluated here,
    where the rich result still exists.
    """
    from ..parallel import summarize_result

    choices, result, picks = _run_scripted(program, prefix, run_kwargs,
                                           annotate)
    hit = stop_on is not None and bool(stop_on(result))
    return (choices.log, summarize_result(result), hit, picks,
            choices.divergences)


def _run_scripted(program: Callable, prefix: Sequence[int],
                  run_kwargs: dict, annotate: bool):
    """Run ``program`` under a scripted schedule, optionally annotated.

    ``run_kwargs`` may carry ``observer_factories`` — zero-argument
    callables building a *fresh* observer per run (detectors are
    stateful, so a shared instance would bleed reports across the
    exploration).  This is the hook :mod:`repro.predict.confirm` uses to
    let ``stop_on`` predicates see detector verdicts (e.g.
    ``result.races``) during systematic search.
    """
    choices = ScriptedChoices(prefix)
    kwargs = dict(run_kwargs)
    observers = list(kwargs.pop("observers", ()))
    observers.extend(factory()
                     for factory in kwargs.pop("observer_factories", ()))
    annotator = None
    if annotate:
        annotator = ChoiceAnnotator()
        observers.append(annotator)
    result = run(program, rng=choices, observers=observers, **kwargs)
    picks = annotator.picks if annotator is not None else None
    return choices, result, picks


# ----------------------------------------------------------------------
# Explorer internals
# ----------------------------------------------------------------------

#: Individual clamp records kept on an :class:`Exploration` (the count in
#: ``divergences`` is never capped; only the per-event detail is).
_MAX_DIVERGENCE_EVENTS = 100

# Sleep entries are ``(gid, footprint)`` pairs: "goroutine ``gid``'s next
# transition need not be taken here — an explored sibling already covers
# every schedule that starts with it."  ``footprint`` is the transition's
# token set; a dependent (overlapping) step wakes the entry by dropping it.


class _Node:
    """One branch point with unexplored siblings, explored lazily in order
    so each sibling inherits the footprints of the previous ones."""

    __slots__ = ("base", "position", "sleep0", "pending", "entries",
                 "expected")

    def __init__(self, base, position, sleep0, pending, first_entry,
                 expected):
        self.base = base                  # takens up to the branch point
        self.position = position
        self.sleep0 = sleep0              # sleep set in effect at the node
        self.pending = pending            # alternative indices left to try
        self.entries = [first_entry]      # explored transitions' footprints
        self.expected = expected          # expected (n, ...) for the replay


class _Work:
    """A prefix scheduled for exploration."""

    __slots__ = ("prefix", "sleep", "node", "filter_from", "expected")

    def __init__(self, prefix, sleep, node, filter_from, expected):
        self.prefix = prefix
        self.sleep = sleep
        self.node = node                  # origin _Node to report back to
        self.filter_from = filter_from    # first position to re-filter from
        self.expected = expected


class _Explorer:
    """Shared driver for the serial and parallel exploration loops."""

    def __init__(self, max_runs, max_branch_depth, prune):
        self.max_runs = max_runs
        self.max_branch_depth = max_branch_depth
        self.prune = prune
        self.stack: List[_Work] = [_Work([], (), None, 0, ())]
        self.statuses: dict = {}
        self.runs = 0
        self.pruned = 0
        self.divergences = 0
        self.divergence_events: List[Tuple[int, int, int]] = []
        self.max_depth = 0

    # -- outcome processing --------------------------------------------

    def diverged(self, work: _Work, choices: ScriptedChoices) -> bool:
        """Did the replay follow the recorded schedule it branched from?"""
        log = choices.log
        if choices.diverged or len(log) < len(work.prefix):
            return True
        return any(n != expected
                   for (n, _taken), expected in zip(log, work.expected))

    def counterexample_from(self, work: _Work, log) -> List[int]:
        return [taken for _n, taken in log[:len(work.prefix)]] \
            or list(work.prefix)

    def process(self, work: _Work, log, status: str, hit: bool,
                picks, diverged: bool,
                clamps: Sequence[Tuple[int, int, int]] = ()) -> None:
        """Account one visited run and expand its branches (unless it
        produced the counterexample — the caller returns before this)."""
        if clamps and len(self.divergence_events) < _MAX_DIVERGENCE_EVENTS:
            room = _MAX_DIVERGENCE_EVENTS - len(self.divergence_events)
            self.divergence_events.extend(
                tuple(clamp) for clamp in list(clamps)[:room])
        self.max_depth = max(self.max_depth, len(log))
        self.statuses[status] = self.statuses.get(status, 0) + 1
        picks_by_pos = {p.position: p for p in picks} if picks else {}
        self._report_to_node(work, picks_by_pos, diverged)
        if diverged:
            # The run did not follow the schedule it was branched from:
            # its log describes some other subtree.  Expanding it would
            # explore blind; count it and stop here.
            self.divergences += 1
            return
        self._expand(work, log, picks_by_pos)

    def _report_to_node(self, work: _Work, picks_by_pos, diverged) -> None:
        node = work.node
        if node is None:
            return
        ann = picks_by_pos.get(len(work.prefix) - 1)
        entry = None
        if not diverged and ann is not None and not ann.poisoned:
            entry = (ann.gids[ann.chosen], ann.tokens)
        node.entries.append(entry)
        if node.pending:
            self._push_next(node)

    def _push_next(self, node: _Node) -> None:
        alternative = node.pending.pop(0)
        sleep = node.sleep0 + tuple(e for e in node.entries if e is not None)
        self.stack.append(_Work(node.base + [alternative], sleep, node,
                                node.position, node.expected))

    def _expand(self, work: _Work, log, picks_by_pos) -> None:
        prefix = work.prefix
        limit = min(len(log), self.max_branch_depth)
        takens = [taken for _n, taken in log]
        ns = [n for n, _taken in log]
        cur = list(work.sleep)
        # Sleep snapshot for divergences *inside* the current segment
        # (select draws): the state before the governing pick applied.
        governing_sleep: Tuple = tuple(work.sleep)
        governing_pos = work.filter_from
        for q in range(work.filter_from, limit):
            n, taken = log[q]
            ann = picks_by_pos.get(q)
            branchable = q >= len(prefix)
            if ann is None:
                # A select draw (or pruning is off): expand eagerly.  The
                # child diverges inside the governing pick's segment, so it
                # inherits the pre-pick sleep set and re-filters from there.
                if branchable and n > 1:
                    base = takens[:q]
                    expected = tuple(ns[:q + 1])
                    for alternative in range(n - 1, -1, -1):
                        if alternative != taken:
                            self.stack.append(_Work(
                                base + [alternative], governing_sleep, None,
                                governing_pos, expected))
                continue
            gid_taken = ann.gids[ann.chosen]
            sleeping = {gid for gid, _ in cur}
            if gid_taken in sleeping:
                # The run's own continuation took a sleeping transition:
                # everything *below* reorders schedules already covered.
                # The state at q itself is still new, though — classic
                # sleep-set search explores enabled-minus-sleeping at every
                # state, so the non-sleeping alternatives get their own
                # runs.  (Their sleep sets inherit the taken transition's
                # entry through ``cur`` itself.)
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
                        node = _Node(takens[:q], q, tuple(cur), pending,
                                     None, tuple(ns[:q + 1]))
                        self._push_next(node)
                return
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
                    first = None if ann.poisoned \
                        else (gid_taken, ann.tokens)
                    node = _Node(takens[:q], q, tuple(cur), pending, first,
                                 tuple(ns[:q + 1]))
                    self._push_next(node)
            governing_sleep = tuple(cur)
            governing_pos = q
            if ann.poisoned:
                cur = []
            else:
                tokens = ann.tokens
                cur = [(gid, fp) for gid, fp in cur
                       if gid != gid_taken and fp.isdisjoint(tokens)]

    def exploration(self, **overrides) -> Exploration:
        fields = dict(
            runs=self.runs,
            exhausted=False,
            statuses=self.statuses,
            pruned=self.pruned,
            divergences=self.divergences,
            divergence_events=list(self.divergence_events),
            max_depth=self.max_depth,
        )
        fields.update(overrides)
        return Exploration(**fields)


def explore_systematic(
    program: Callable,
    stop_on: Optional[Callable[[RunResult], bool]] = None,
    max_runs: int = 1000,
    max_branch_depth: int = 400,
    jobs: int = 1,
    prune: bool = True,
    **run_kwargs: Any,
) -> Exploration:
    """Depth-first enumeration of the program's schedule tree.

    Args:
        program: a ``main(rt)`` program.
        stop_on: predicate over :class:`RunResult`; the first run
            satisfying it ends exploration as a counterexample.  Without
            it, the explorer simply covers schedules (useful with
            ``statuses`` for coverage summaries).
        max_runs: total run budget.
        max_branch_depth: only branch on the first N decision points of
            each run (bounds the tree; later choices stay at the default).
        jobs: worker processes (:mod:`repro.parallel`).  With ``jobs > 1``
            up to ``jobs`` frontier prefixes run concurrently per round and
            their branches merge in submission order.  Schedule *coverage*
            is unchanged — pruning decisions depend only on each branch
            point's own runs, in a fixed sibling order — so exploration to
            exhaustion visits exactly the same tree; only the visiting
            order (and, with ``stop_on``, which counterexample is found
            first) can differ.  The parallel counterexample result is a
            :class:`repro.parallel.RunSummary` rather than a full
            :class:`RunResult`.
        prune: sleep-set equivalence pruning (see the module docstring).
            Coverage of reachable outcomes is preserved; schedules visited
            shrink.  Disabled automatically when a fault injector is
            attached.
        run_kwargs: forwarded to :func:`repro.run` (e.g. ``time_limit``).
    """
    # An attached injector mutates runs beyond what choice replay
    # controls; pruning stands down.
    explorer = _Explorer(max_runs, max_branch_depth,
                         prune and "inject" not in run_kwargs)
    t0 = time.perf_counter()

    def finish(**overrides) -> Exploration:
        return explorer.exploration(wall_s=time.perf_counter() - t0,
                                    **overrides)

    if jobs > 1:
        from ..parallel import map_units

        while explorer.stack and explorer.runs < explorer.max_runs:
            width = min(jobs, len(explorer.stack),
                        explorer.max_runs - explorer.runs)
            batch = [explorer.stack.pop() for _ in range(width)]
            outcomes = map_units(
                [partial(_explore_unit, program, work.prefix, stop_on,
                         run_kwargs, explorer.prune) for work in batch],
                jobs=jobs,
            )
            for work, (log, summary, hit, picks, clamps) in zip(batch,
                                                                outcomes):
                diverged = bool(clamps) or _log_mismatch(work, log)
                explorer.runs += 1
                if hit:
                    # First hit in submission order wins; the rest of this
                    # speculative batch is discarded uncounted.
                    explorer.statuses[summary.status] = \
                        explorer.statuses.get(summary.status, 0) + 1
                    explorer.max_depth = max(explorer.max_depth, len(log))
                    return finish(
                        counterexample=explorer.counterexample_from(work, log),
                        counterexample_result=summary,
                    )
                explorer.process(work, log, summary.status, hit, picks,
                                 diverged, clamps)
        return finish(exhausted=not explorer.stack)

    while explorer.stack and explorer.runs < explorer.max_runs:
        work = explorer.stack.pop()
        choices, result, picks = _run_scripted(program, work.prefix,
                                               run_kwargs, explorer.prune)
        explorer.runs += 1
        diverged = explorer.diverged(work, choices)
        hit = stop_on is not None and bool(stop_on(result))
        if hit:
            explorer.statuses[result.status] = \
                explorer.statuses.get(result.status, 0) + 1
            explorer.max_depth = max(explorer.max_depth, len(choices.log))
            return finish(
                counterexample=explorer.counterexample_from(work, choices.log),
                counterexample_result=result,
            )
        explorer.process(work, choices.log, result.status, hit, picks,
                         diverged, choices.divergences)

    return finish(exhausted=not explorer.stack)


def _log_mismatch(work: _Work, log) -> bool:
    if len(log) < len(work.prefix):
        return True
    return any(n != expected
               for (n, _taken), expected in zip(log, work.expected))


def replay_schedule(program: Callable, schedule: Sequence[int],
                    **run_kwargs: Any) -> RunResult:
    """Replay one explored schedule (a witness) to a full ``RunResult``.

    The schedule is a choice-index prefix exactly as produced in
    :attr:`Exploration.counterexample`; beyond the prefix, choices
    default to index 0 like the explorer's own replays.  Accepts the
    same ``observer_factories`` hook as exploration, so detector-based
    predicates can be re-evaluated on the replayed run.
    """
    choices, result, _picks = _run_scripted(program, list(schedule),
                                            dict(run_kwargs), False)
    setattr(result, "replay_divergences", list(choices.divergences))
    return result


def verify_no_manifestation(kernel, variant: str = "fixed",
                            max_runs: int = 500, **run_kwargs: Any
                            ) -> Exploration:
    """Exhaustively (within bounds) check a kernel variant never manifests."""
    program = kernel.fixed if variant == "fixed" else kernel.buggy
    merged = dict(kernel.run_kwargs)
    merged.update(run_kwargs)
    return explore_systematic(
        program,
        stop_on=kernel.manifested,
        max_runs=max_runs,
        **merged,
    )
