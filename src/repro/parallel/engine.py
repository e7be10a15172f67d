"""The process-pool sweep engine: fan work units across cores, merge in order.

Seed sweeps are embarrassingly parallel — every ``(seed, plan)`` unit is an
independent deterministic simulation — so the only interesting problems are
*overhead* problems.  The first engine forked a fresh pool per call and
dispatched one task per unit; at simulator unit costs (a few ms) the fork +
IPC tax swamped the win and ``jobs=4`` benchmarked *slower* than serial.
This version keeps three levers:

* **Persistent pool** — the fork pool is created lazily on first use and
  reused by every later :func:`map_units` call with the same worker count,
  amortizing process startup across the repeated sweeps that dominate real
  workloads (manifestation repeats, chaos cells).
  An :mod:`atexit` hook tears it down; :func:`shutdown_pool` does so
  eagerly (tests use it to assert reuse behavior).
* **Chunked dispatch** — units travel in ``chunksize`` batches instead of
  one task per unit, cutting per-task IPC round trips.
* **Adaptive serial cutover** — the first few units run serially in the
  parent as a probe; if the projected cost of the remainder cannot pay for
  dispatch overhead, the whole call stays serial.  Tiny sweeps no longer
  pay fan-out tax at all.

Dispatch needs picklable units.  ``functools.partial`` over module-level
functions (every internal sweep consumer) pickles fine and goes to the
persistent pool; closures and lambdas do not pickle, so they fall back to
the original fork-per-call path: the unit list is published in a
module-level slot, children inherit it through the fork, and only unit
*indices* travel through the pool.

Both paths preserve submission order (``Pool.map`` merges in order), so
``jobs=N`` results stay byte-identical to ``jobs=1``.

Degrades to serial execution automatically when:

* ``jobs <= 1`` or there is at most one unit,
* the platform has no ``fork`` start method (e.g. Windows), or
* we are already *inside* a sweep worker (the worker-side ``_IN_WORKER``
  flag, set by the pool initializer): nested sweeps run serially instead
  of forking recursively.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["map_units", "effective_jobs", "shutdown_pool", "pool_stats"]

#: Set to True in pool workers by the pool initializer.  This — not the
#: unit slot below — is the "am I a worker?" signal, so a parent process
#: between persistent-pool reuses can never misclassify itself as nested.
_IN_WORKER = False

#: Unit list published for forked workers on the closure (non-picklable)
#: fallback path.  Non-None only while that ephemeral pool is alive.
_ACTIVE_UNITS: Optional[Sequence[Callable[[], Any]]] = None

#: The persistent pool (picklable-unit path), created lazily.
_POOL: Optional[Any] = None
_POOL_WORKERS = 0
_STATS: Dict[str, int] = {"pools_created": 0, "dispatches": 0,
                          "serial_cutovers": 0, "fallback_pools": 0}

#: Units executed serially in the parent to estimate per-unit cost.
PROBE_UNITS = 4

#: Projected remaining serial cost (seconds) below which fan-out cannot
#: pay for dispatch overhead and the call stays serial.
MIN_PARALLEL_COST_S = 0.05


def _fork_available() -> bool:
    try:
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
    # Pool initializer: runs once in each freshly forked worker.
    global _IN_WORKER, _POOL, _POOL_WORKERS
    _IN_WORKER = True
    # The worker inherited the parent's pool handle through the fork; it is
    # unusable (and unused — nested sweeps degrade to serial) but dropping
    # it keeps worker-side state honest.
    _POOL = None
    _POOL_WORKERS = 0


def _call_unit(unit: Callable[[], Any]) -> Any:
    return unit()


def _execute_unit(index: int) -> Any:
    # Closure fallback: _ACTIVE_UNITS was inherited through the fork.
    return _ACTIVE_UNITS[index]()


def _get_pool(workers: int):
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        ctx = multiprocessing.get_context("fork")
        _POOL = ctx.Pool(processes=workers, initializer=_mark_worker)
        _POOL_WORKERS = workers
        _STATS["pools_created"] += 1
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (no-op when none is alive)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def pool_stats() -> Dict[str, int]:
    """Counters for pool lifecycle (the tests read these)."""
    stats = dict(_STATS)
    stats["pool_alive"] = 1 if _POOL is not None else 0
    stats["pool_workers"] = _POOL_WORKERS
    return stats


def _chunksize(n_units: int, workers: int) -> int:
    # A few chunks per worker balances load without per-unit IPC.
    return max(1, -(-n_units // (workers * 4)))


def map_units(units: Sequence[Callable[[], Any]], jobs: int = 1) -> List[Any]:
    """Run every zero-arg unit; return their results in submission order.

    With ``jobs > 1`` units execute across a fork pool; each unit's return
    value must be picklable.  Exceptions raised by a unit propagate to the
    caller either way.  Order of the result list never depends on worker
    timing, and the merged list is byte-identical to a ``jobs=1`` run.
    """
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
        _STATS["serial_cutovers"] += 1
        results.extend(unit() for unit in rest)
        return results

    chunk = _chunksize(len(rest), workers)
    try:
        pickle.dumps(rest)
    except Exception:
        results.extend(_map_units_fallback(rest, workers, chunk))
        return results
    pool = _get_pool(workers)
    _STATS["dispatches"] += 1
    try:
        results.extend(pool.map(_call_unit, rest, chunksize=chunk))
    except Exception:
        # A worker died mid-map (or the pool was torn down under us):
        # discard the pool so the next call starts clean, then re-raise.
        shutdown_pool()
        raise
    return results


def _map_units_fallback(units: Sequence[Callable[[], Any]], workers: int,
                        chunk: int) -> List[Any]:
    # Closures can't pickle: publish the unit list, fork an ephemeral pool
    # that inherits it, and send only indices through the queue.
    global _ACTIVE_UNITS
    ctx = multiprocessing.get_context("fork")
    _ACTIVE_UNITS = units
    _STATS["fallback_pools"] += 1
    try:
        with ctx.Pool(processes=workers, initializer=_mark_worker) as pool:
            return pool.map(_execute_unit, range(len(units)), chunksize=chunk)
    finally:
        _ACTIVE_UNITS = None
