"""Go's ``select`` statement.

The two semantics the paper's bugs depend on:

* When more than one case is ready, the runtime chooses **uniformly at
  random** among them (the nondeterminism behind Figure 1's leak and
  Figure 11's extra-execution bug).  The choice is drawn from the
  scheduler's seeded RNG, so seeds reproduce it.
* A select with a ``default`` branch never blocks (the standard fix pattern
  "add a select with default" from Table 7).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..runtime.errors import GoPanic
from ..runtime.trace import EventKind
from .cases import SelectCase
from .channel import _Waiter

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime


class _SelectContext:
    """Shared completion token for all waiters parked by one select.

    The first channel peer to ``try_win`` a case index owns the select;
    every other parked waiter becomes dead and is lazily discarded.
    """

    __slots__ = ("goroutine", "winner", "value", "ok")

    def __init__(self, goroutine):
        self.goroutine = goroutine
        self.winner: Optional[int] = None
        self.value: Any = None
        self.ok: bool = False

    def try_win(self, case_index: int) -> bool:
        if self.winner is not None:
            return False
        self.winner = case_index
        return True


def select(rt: "Runtime", cases: Sequence[SelectCase], default: bool = False
           ) -> Tuple[int, Any, bool]:
    """Execute a select over ``cases``; see :meth:`Runtime.select`."""
    sched = rt.sched
    for case in cases:
        if not isinstance(case, SelectCase):
            raise TypeError(f"select case must be send(...)/recv(...), got {case!r}")
    sched.schedule_point()
    me = sched.current
    case_ids = tuple(cid for case in cases
                     if (cid := getattr(case.channel, "id", None)) is not None)
    sched.emit(EventKind.SELECT_BEGIN,
               info={"cases": len(cases), "default": default,
                     "chans": case_ids})

    while True:
        ready_indices = [i for i, case in enumerate(cases) if case.ready()]
        if ready_indices:
            index = ready_indices[sched.rng.randrange(len(ready_indices))]
            if sched.pick_log is not None:
                # The draw shares the scheduling RNG: its marker keeps
                # each pick's log index equal to its draw position.
                sched.pick_log.append(None)
            value, ok = cases[index].perform(me.gid)
            sched.emit(EventKind.SELECT_COMMIT, info={"chosen": index})
            return index, value, ok
        if default:
            sched.emit(EventKind.SELECT_COMMIT, info={"chosen": -1})
            return -1, None, False

        ctx = _SelectContext(me)
        registered: List[Tuple[Any, _Waiter]] = []
        for index, case in enumerate(cases):
            waiter = case.register(me, ctx, index)
            if waiter is not None:
                registered.append((case.channel, waiter))

        if not registered:
            # Every case is on a nil channel: block forever, as Go does.
            while True:
                sched.block("select.nil")

        sched.block("select", obj=case_ids)

        for channel, waiter in registered:
            if not waiter.completed:
                channel._discard(waiter)

        if ctx.winner is not None:
            index = ctx.winner
            if cases[index].is_send and not ctx.ok:
                raise GoPanic("send on closed channel")
            sched.emit(EventKind.SELECT_COMMIT, info={"chosen": index})
            return index, ctx.value, ctx.ok
        # Spurious wakeup: retry from the fast path.
