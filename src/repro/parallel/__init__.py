"""Parallel seed sweeps: scale "run it a lot of times" with cores.

The paper's detection reality is statistical — a blocking bug that
manifests on a few percent of real executions manifests on a similar
fraction of seeds — so sweep throughput *is* the system's effective speed.
This package fans independent ``(seed, plan)`` simulation units across
worker processes forked for each dispatching call
(:mod:`repro.parallel.engine`) and merges their picklable summaries
(:mod:`repro.parallel.summary`) in seed order.

Determinism contract: ``jobs=N`` output is **byte-identical** to
``jobs=1`` — both paths reduce runs through the same
:func:`summarize_result`, the unit list is fixed before any worker starts,
and the executor's ``map`` returns results in submission order.  The
equivalence tests in ``tests/parallel`` assert this for every sweep
consumer.

What parallelism cannot preserve: in-process side effects.  A shared
Observer, an attached detector accumulating across seeds, or a program
mutating parent-process globals will not see worker writes (children are
forked copies).  Sweep-level predicates run *worker-side* against the full
:class:`RunResult` (``RunSummary.manifested``), which covers the common
cases; anything needing cross-seed aggregation in one address space should
use ``jobs=1``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable, List, Optional

from .engine import effective_jobs, map_units
from .summary import RunSummary, schedule_digest, summarize_result

__all__ = [
    "DEFAULT_SWEEP_JOIN_TIMEOUT",
    "RunSummary",
    "effective_jobs",
    "map_units",
    "schedule_digest",
    "summarize_result",
    "sweep_seeds",
]

#: Host-thread join bound applied to sweep runs (seconds).  The interactive
#: default (:data:`repro.runtime.goroutine.HOST_JOIN_TIMEOUT`) is generous;
#: inside a sweep one pathological seed with a stuck host thread should cost
#: about a second, not five, so the engine shrinks it — in the serial path
#: too, keeping jobs=1 and jobs=N byte-identical.
DEFAULT_SWEEP_JOIN_TIMEOUT = 1.0


def _run_unit(
    program: Callable[..., Any],
    seed: int,
    predicate: Optional[Callable[[Any], bool]],
    run_kwargs: dict,
) -> RunSummary:
    from ..runtime.runtime import run

    result = run(program, seed=seed, **run_kwargs)
    return summarize_result(result, predicate=predicate)


def sweep_seeds(
    program: Callable[..., Any],
    seeds: Iterable[int],
    *,
    jobs: int = 1,
    predicate: Optional[Callable[[Any], bool]] = None,
    **run_kwargs: Any,
) -> List[RunSummary]:
    """Run ``program`` under every seed, optionally across processes.

    Args:
        program: a ``main(rt)`` program (also accepts kernel variants).
        seeds: the seeds to sweep, in the order results are returned.
        jobs: worker processes; 1 (the default) runs in-process.  Output is
            identical either way.
        predicate: optional test over each full :class:`RunResult`
            (e.g. ``kernel.manifested``), evaluated in the worker; lands on
            ``RunSummary.manifested``.
        run_kwargs: forwarded to :func:`repro.run`.  ``host_join_timeout``
            defaults to :data:`DEFAULT_SWEEP_JOIN_TIMEOUT` here.

    Returns:
        One :class:`RunSummary` per seed, in seed order.
    """
    run_kwargs.setdefault("host_join_timeout", DEFAULT_SWEEP_JOIN_TIMEOUT)
    units = [partial(_run_unit, program, seed, predicate, run_kwargs)
             for seed in seeds]
    return map_units(units, jobs=jobs)
