"""The summary IR the static checkers consume.

The abstract interpreter (:mod:`repro.static.interp`) reduces a kernel's
source to a :class:`ProgramModel`: one :class:`ThreadModel` per spawned
goroutine (plus main), each holding the set of executable *paths* the
interpreter explored, each path an ordered list of :class:`Op` records —
lock acquires/releases, channel operations, waitgroup deltas, spawns —
annotated with the lockset held at that point and a multiplicity flag
for ops inside unbounded loops.

Everything here is deliberately plain data: the checkers
(:mod:`.lockgraph`, :mod:`.chanshape`, :mod:`.sharedrace`) are pure
functions over this model and never touch the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Multiplicity markers: ``"1"`` = executes at most once per run of the
#: path, ``"*"`` = sits inside a loop the interpreter did not unroll.
ONCE = "1"
MANY = "*"


class AbstractObj:
    """One runtime object the interpreter tracked (mutex, chan, wg, ...).

    ``kind`` is one of: mutex, rwmutex, wg, cond, once, shared, atomic,
    chan, ctx, cancel, timer, ticker, pipe_r, pipe_w, lib, instance.
    """

    __slots__ = ("kind", "name", "oid", "capacity", "nil", "timer_duration",
                 "is_timer", "is_ticker", "is_done", "attrs", "values",
                 "cancel_called", "auto_cancel", "line", "peer")

    def __init__(self, kind: str, name: str, oid: int, line: int = 0):
        self.kind = kind
        self.name = name
        self.oid = oid
        self.line = line
        self.capacity: Optional[int] = None   # channels
        self.nil = False                      # nil channel
        self.timer_duration = None            # Const duration for timers
        self.is_timer = False                 # chan is a timer/after channel
        self.is_ticker = False
        self.is_done = False                  # chan is some ctx.done()
        self.attrs: Dict[str, object] = {}    # instances, timers (.c)
        self.values: Dict[object, object] = {}  # ctx value store
        self.cancel_called = False            # cancel handles
        self.auto_cancel = False              # with_timeout cancels itself
        self.peer = None                      # pipe_r <-> pipe_w

    def __repr__(self) -> str:
        return f"<{self.kind} {self.name}#{self.oid}>"


@dataclass
class Op:
    """One abstract operation on one abstract object."""

    kind: str                      # acquire/release/send/recv/... (see doc)
    obj: Optional[AbstractObj]
    line: int
    #: Locks held when the op executes: ((mutex_obj, "w"|"r"), ...).
    lockset: Tuple[Tuple[AbstractObj, str], ...] = ()
    mult: str = ONCE
    in_once: bool = False
    mode: str = "w"                # acquire/release mode
    delta: Optional[int] = None    # wg.add delta / timer duration
    blocking: bool = True
    #: select only: ((case_kind, chan_obj), ...) and default presence.
    arms: Tuple[Tuple[str, AbstractObj], ...] = ()
    has_default: bool = False
    detail: str = ""               # spawn target key, lib method name, ...

    def holds(self, obj: AbstractObj) -> bool:
        return any(mu is obj for mu, _ in self.lockset)

    def __repr__(self) -> str:
        tgt = self.obj.name if self.obj is not None else self.detail
        locks = "{" + ",".join(f"{mu.name}/{m}" for mu, m in self.lockset) + "}"
        star = "*" if self.mult == MANY else ""
        return f"{self.kind}{star}({tgt})@{self.line}{locks}"


@dataclass
class Path:
    """One explored control-flow path through a thread body."""

    ops: List[Op] = field(default_factory=list)
    returned: bool = False

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)


@dataclass
class ThreadModel:
    """All explored paths of one goroutine."""

    key: str                       # stable id: "<fn>@<line>#<occurrence>"
    name: str
    paths: List[Path] = field(default_factory=list)
    mult: str = ONCE               # spawned inside an unbounded loop?
    parent_key: Optional[str] = None
    conditional: bool = False      # spawned on some but not all paths

    def ops(self) -> Iterator[Tuple[int, int, Op]]:
        """Yield (path_index, op_index, op) over every path."""
        for pi, path in enumerate(self.paths):
            for oi, op in enumerate(path.ops):
                yield pi, oi, op


@dataclass
class ProgramModel:
    """The whole-program summary: every thread, every path, every op."""

    target: str
    threads: List[ThreadModel] = field(default_factory=list)
    objects: Dict[int, AbstractObj] = field(default_factory=dict)

    @property
    def main(self) -> ThreadModel:
        return self.threads[0]

    def thread(self, key: str) -> Optional[ThreadModel]:
        for t in self.threads:
            if t.key == key:
                return t
        return None

    def all_ops(self) -> Iterator[Tuple[ThreadModel, int, int, Op]]:
        for t in self.threads:
            for pi, oi, op in t.ops():
                yield t, pi, oi, op

    def objects_of_kind(self, *kinds: str) -> List[AbstractObj]:
        return [o for o in self.objects.values() if o.kind in kinds]

    # -- queries the checkers share -----------------------------------

    def ops_on(self, obj: AbstractObj, *kinds: str
               ) -> List[Tuple[ThreadModel, int, int, Op]]:
        out = []
        for t, pi, oi, op in self.all_ops():
            if op.obj is obj and (not kinds or op.kind in kinds):
                out.append((t, pi, oi, op))
        return out

    def potential_count(self, obj: AbstractObj, kinds: Tuple[str, ...],
                        exclude: Optional[ThreadModel] = None) -> float:
        """Upper bound on how often ops of ``kinds`` hit ``obj``.

        Per thread the max over its paths (an op that *may* execute
        counts), ``inf`` for ops inside unbounded loops or in threads
        spawned inside them.  Select arms count: an arm ``(kind, obj)``
        contributes like a direct op of that kind.
        """
        total = 0.0
        for t in self.threads:
            if t is exclude:
                continue
            best = 0.0
            for path in t.paths:
                here = 0.0
                for op in path.ops:
                    hit = (op.obj is obj and op.kind in kinds)
                    if not hit and op.kind == "select":
                        hit = any(arm_obj is obj and arm_kind in kinds
                                  for arm_kind, arm_obj in op.arms)
                    if hit:
                        here = float("inf") if (op.mult == MANY
                                                or t.mult == MANY) \
                            else here + 1
                best = max(best, here)
            total += best
        return total

    def spawn_index(self, parent: ThreadModel, path: Path,
                    child_key: str) -> Optional[int]:
        """Index of the op in ``path`` that spawned ``child_key``."""
        for i, op in enumerate(path.ops):
            if op.kind == "spawn" and op.detail == child_key:
                return i
        return None
