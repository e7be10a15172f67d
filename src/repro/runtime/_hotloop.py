"""The per-step hot path: one import surface, compiled when possible.

Two pieces of the simulator dominate untraced sweep profiles: the
scheduler's per-step decision loop and the ``randrange`` draws feeding it.
This module picks, once per process, the compiled or the pure-Python form
of each:

* :data:`BatchedRandom` — the scheduling RNG.  The compiled MT19937 from
  ``repro.runtime._ext._hotloop`` when the extension builds here, else
  :class:`random.Random` itself.  The compiled one draws the exact
  sequence ``random.Random(seed).randrange(n)`` would for every
  ``1 <= n < 2**32`` (the only range scheduler picks and ``select`` draws
  produce; any other ``n`` is a ``ValueError``), so which one a run gets
  never changes a schedule.
* :func:`get_drive` — the fused per-step scheduler loop (compiled only).
  Returns ``None`` when unavailable; the scheduler then runs its pure loop.
  The compiled loop runs every tasklet-vehicle run, traced, pick-logged,
  explored, faulted or not: it draws inline from the compiled
  ``BatchedRandom`` and calls any other source's ``randrange`` (the
  explorer's scripted choices) once per pick, as the pure loop does.  A
  scheduler it cannot read makes it raise ``TypeError``.  With nothing
  runnable it fires the due timers itself and returns ``"idle"`` only
  when no live timer is left below the scheduler's clock horizon
  (``Scheduler._horizon``): it readies a sleeper (a timer whose callback
  slot holds the goroutine) in C and calls the other callbacks itself.
  A faulted run enters it between the injector's due steps, with the
  step budget clamped to the next one and the horizon set to the
  earliest ``after_time`` a fault still waits for, so it leaves before
  the clock crosses one (see ``Scheduler._drive_to_due_step``).

Channels, select, Mutex/RWMutex and vector clocks have one implementation
each, in pure Python.  Set ``REPRO_NO_CEXT=1`` (or use :class:`force_pure`)
to run every pure-Python path; the parity tests run both ways and assert
byte-identical results.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from . import _ext

_c = _ext.get_hotloop()

#: True when the compiled extension loaded (BatchedRandom and the fused
#: loop are C; False on other platforms / REPRO_NO_CEXT=1).
HAS_COMPILED = _c is not None

#: The scheduling RNG class every Scheduler instantiates by default.
BatchedRandom: Any = _c.BatchedRandom if _c is not None else random.Random

_drive: Optional[Callable[[Any], str]] = None
_drive_resolved = False

#: When True every accessor below reports "not compiled" even though the
#: extension is loaded — the bench harness uses this to measure the pure
#: paths in the same process (see :func:`force_pure`).
_force_pure = False


def get_drive() -> Optional[Callable[[Any], str]]:
    """The compiled ``drive(scheduler)`` step loop, or None without it.

    First call binds the extension to the runtime classes (slot offsets,
    state constants, the continuation switch); that may lazily compile
    ``_ctasklet`` for the fast switching path.  Only tasklet-vehicle
    schedulers call it; the thread vehicle hands off directly and never
    enters the centralized loop.
    """
    global _drive, _drive_resolved
    if not _drive_resolved:
        _drive_resolved = True
        if _c is not None:
            try:
                from .goroutine import (
                    Goroutine,
                    GState,
                    TaskletGoroutine,
                    tasklet_module,
                )
                from .trace import _NO_INFO, EventKind, Trace

                mod = tasklet_module()
                _c.bind(Goroutine, TaskletGoroutine, GState,
                        mod.Tasklet if mod is not None else None,
                        Trace, EventKind, _NO_INFO)
                _drive = _c.drive
            except Exception:  # pragma: no cover - defensive: stay pure
                _drive = None
    if _force_pure:
        return None
    return _drive


def get_fastops() -> None:
    """Bind the compiled drive loop, then return None.

    The compiled channel/select/sync ops this used to return are gone; the
    pure primitives are the only implementation.  The function stays for
    callers outside ``src`` that still call it: they rely on the call
    binding the drive loop (and so loading ``_ctasklet``) and read None as
    "no fast ops".
    """
    get_drive()
    return None


class force_pure:
    """Context manager: run with the compiled drive loop disabled.

    Schedulers constructed inside the ``with`` block run the pure step
    loop, as under ``REPRO_NO_CEXT=1`` — the bench harness measures pure
    cells this way, and the parity tests diff compiled-vs-pure runs in one
    process.  The RNG class is picked at import and stays as it is; both
    forms draw the same sequence.  (Schedulers constructed *outside* the
    block keep whatever they resolved at construction time.)
    """

    def __enter__(self) -> "force_pure":
        global _force_pure
        self._prev = _force_pure
        _force_pure = True
        return self

    def __exit__(self, *exc: Any) -> None:
        global _force_pure
        _force_pure = self._prev


__all__ = ["BatchedRandom", "HAS_COMPILED", "force_pure", "get_drive",
           "get_fastops"]
