"""The process-pool sweep engine: fan work units across cores, merge in order.

Seed sweeps are embarrassingly parallel — every ``(seed, plan)`` unit is an
independent deterministic simulation — so the only interesting problems are
*overhead* problems.  Two levers keep fan-out worth its cost:

* **Adaptive serial cutover** — the first few units run serially in the
  parent as a probe; if the projected cost of the remainder cannot pay for
  dispatch overhead, the whole call stays serial.  Tiny sweeps never fork.
* **Chunked dispatch** — units travel in ``chunksize`` batches instead of
  one task per unit, cutting per-task IPC round trips.

A call that does dispatch forks a fresh
:class:`concurrent.futures.ProcessPoolExecutor` for itself alone and shuts
it down before returning.  The unit list is published in a module-level
slot before the fork, children inherit it, and only unit *indices* travel
to the workers: units themselves never cross the process boundary, so
closures and ``__main__`` programs dispatch like module-level functions
(only results travel back).  Every
dispatch starts from the parent's state at the time of the call, and a
worker that dies raises :class:`~concurrent.futures.process.BrokenProcessPool`
instead of hanging.  ``multiprocessing`` and the executor are imported on
first use, so ``import repro`` and ``jobs=1`` calls load neither.

Results are merged in submission order, so ``jobs=N`` output stays
byte-identical to ``jobs=1``.

Degrades to serial execution automatically when:

* ``jobs <= 1`` or there is at most one unit,
* the platform has no ``fork`` start method (e.g. Windows), or
* we are already *inside* a sweep worker (the worker-side ``_IN_WORKER``
  flag, set by the executor's initializer): nested sweeps run serially
  instead of forking recursively.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["map_units", "effective_jobs"]

#: Set to True in sweep workers by the executor initializer.  This — not
#: the unit slot below — is the "am I a worker?" signal.
_IN_WORKER = False

#: Unit list published for forked workers.  Non-None only while a
#: dispatching :func:`map_units` call is running.
_ACTIVE_UNITS: Optional[Sequence[Callable[[], Any]]] = None

#: Units executed serially in the parent to estimate per-unit cost.
PROBE_UNITS = 4

#: Projected remaining serial cost (seconds) below which fan-out cannot
#: pay for dispatch overhead and the call stays serial.
MIN_PARALLEL_COST_S = 0.05


def _fork_available() -> bool:
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic hosts
        return False


def effective_jobs(jobs: int, n_units: int) -> int:
    """How many worker processes :func:`map_units` would actually use."""
    if jobs <= 1 or n_units <= 1 or not _fork_available():
        return 1
    if _IN_WORKER:  # nested inside a worker
        return 1
    return min(jobs, n_units)


def _mark_worker() -> None:
    # Executor initializer: runs once in each freshly forked worker.
    global _IN_WORKER
    _IN_WORKER = True


def _execute_unit(index: int) -> Any:
    # _ACTIVE_UNITS was inherited through the fork.
    return _ACTIVE_UNITS[index]()


def _chunksize(n_units: int, workers: int) -> int:
    # A few chunks per worker balances load without per-unit IPC.
    return max(1, -(-n_units // (workers * 4)))


def map_units(units: Sequence[Callable[[], Any]], jobs: int = 1) -> List[Any]:
    """Run every zero-arg unit; return their results in submission order.

    With ``jobs > 1`` units execute across forked workers; each unit's
    return value must be picklable.  Exceptions raised by a unit propagate
    to the caller either way.  Order of the result list never depends on
    worker timing, and the merged list is byte-identical to a ``jobs=1`` run.
    """
    global _ACTIVE_UNITS
    workers = effective_jobs(jobs, len(units))
    if workers <= 1:
        return [unit() for unit in units]

    # Probe: run the first few units serially to estimate per-unit cost.
    probe_n = min(PROBE_UNITS, len(units) - 1)
    t0 = time.perf_counter()
    results: List[Any] = [unit() for unit in units[:probe_n]]
    probe_s = time.perf_counter() - t0
    rest = units[probe_n:]
    per_unit = probe_s / probe_n if probe_n else 0.0
    if per_unit * len(rest) < MIN_PARALLEL_COST_S:
        # Fan-out cannot pay for itself; finish serially.
        results.extend(unit() for unit in rest)
        return results

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _ACTIVE_UNITS = rest
    try:
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_mark_worker) as executor:
            # When a unit raises, map's iterator cancels the chunks not
            # yet started before the exception leaves it.
            results.extend(executor.map(
                _execute_unit, range(len(rest)),
                chunksize=_chunksize(len(rest), workers)))
    finally:
        _ACTIVE_UNITS = None
    return results
