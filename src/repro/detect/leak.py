"""Leak reporting helpers.

Turns a finished :class:`~repro.runtime.runtime.RunResult` into structured
:class:`~repro.detect.report.LeakReport` records, and sweeps seeds to
estimate how often a nondeterministic leak manifests (the simulator's
analogue of the paper's "run the buggy program a lot of times").
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Sequence

from ..runtime.goroutine import Goroutine
from ..runtime.runtime import RunResult, is_stuck, run
from .report import LeakReport


def leak_reports(result: RunResult) -> List[LeakReport]:
    """Extract one report per goroutine stuck at the end of the run.

    ``result.leaked`` already covers every terminal flavor of "stuck":
    post-drain leaks, all-asleep deadlocks, external-wait hangs, and
    blocked-at-timeout suspects.
    """
    stuck: Sequence[Goroutine] = result.leaked
    return [
        LeakReport(
            gid=g.gid,
            name=g.name,
            reason=g.block_reason or "unknown",
            creation_site=g.creation_site,
        )
        for g in stuck
    ]


def manifestation_rate(
    program: Callable,
    seeds: Iterable[int],
    manifests: Callable[[RunResult], bool],
    jobs: int = 1,
    **run_kwargs: Any,
) -> float:
    """Fraction of seeds under which ``manifests(result)`` is true.

    ``jobs > 1`` fans the sweep across worker processes
    (:mod:`repro.parallel`); the predicate runs worker-side against each
    full result, and the rate is identical to a serial sweep.
    """
    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("manifestation_rate needs at least one seed")
    if jobs > 1:
        from ..parallel import sweep_seeds

        summaries = sweep_seeds(program, seed_list, jobs=jobs,
                                predicate=manifests, **run_kwargs)
        hits = sum(1 for s in summaries if s.manifested)
    else:
        hits = sum(1 for seed in seed_list
                   if manifests(run(program, seed=seed, **run_kwargs)))
    return hits / len(seed_list)


def leaks_under_any_seed(program: Callable, seeds: Iterable[int],
                         jobs: int = 1, **run_kwargs: Any) -> bool:
    """True when some seed makes the program leak or deadlock.

    Serial sweeps stop at the first hit; with ``jobs > 1`` every seed runs
    (speculatively, in parallel) and the verdicts are OR-ed — same answer,
    different wall-clock trade-off.
    """
    if jobs > 1:
        from ..parallel import sweep_seeds

        summaries = sweep_seeds(program, seeds, jobs=jobs,
                                predicate=is_stuck, **run_kwargs)
        return any(s.manifested for s in summaries)
    for seed in seeds:
        if is_stuck(run(program, seed=seed, **run_kwargs)):
            return True
    return False
