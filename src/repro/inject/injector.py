"""The fault injector: executes a :class:`FaultPlan` at scheduling points.

The injector is pulsed by the scheduler before each scheduling decision at
which :meth:`FaultInjector.next_due` names a fault due — i.e. only at
points where scheduling decisions already happen — and never from
goroutine context.  Between due steps the run stays on the compiled drive
loop, which fires timers below the injector's clock horizon (the earliest
``after_time`` a fault still waits for) and hands the step back when the
next timer is at or past it, so the pulse that follows sees the clock
that crossed it.  All of its randomness (probability gates, victim
choice) comes from one RNG seeded from ``(run seed, plan fingerprint)``,
so a chaos run is a pure function of ``(program, seed, plan)`` and any
failure it uncovers replays exactly.

Fault semantics (see :data:`repro.inject.plan.ACTIONS`):

* ``kill``/``panic`` model goroutines dying mid-flight — the situation the
  paper's blocking bugs are least prepared for (peers block forever on a
  channel nobody will ever service).
* ``delay``/``wakeup`` perturb timing the way loaded schedulers do, making
  rare interleavings (timeout-fires-first, slow-consumer) common.
* ``cancel_ctx`` is a context-cancellation storm: every in-flight request
  may be cancelled at any moment, as under deployment-scale load shedding.
* ``clock_jump`` skews virtual time forward, expiring leases/timeouts early.
* ``chan_close``/``chan_fill`` model infrastructure failure: connections
  dropping and buffers backing up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from math import inf
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..runtime.errors import GoPanic
from ..runtime.goroutine import GState
from ..runtime.trace import EventKind
from .plan import Fault, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime
    from ..runtime.scheduler import Scheduler


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired, for reproducers and scorecards."""

    step: int
    time: float
    action: str
    plan: str
    fault_index: int
    victim: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "time": self.time,
            "action": self.action,
            "plan": self.plan,
            "fault_index": self.fault_index,
            "victim": self.victim,
            "detail": dict(self.detail),
        }

    def __repr__(self) -> str:
        return (f"<Fault {self.action} -> {self.victim} "
                f"@step {self.step} t={self.time:g}>")


def _derive_rng(seed: int, plan: FaultPlan) -> random.Random:
    """One RNG per (seed, plan): independent of the scheduler's RNG so the
    base schedule for a seed is unchanged by merely *attaching* a plan whose
    faults never fire."""
    return random.Random(plan.fingerprint() * 1_000_003 + seed)


class FaultInjector:
    """Executes one plan against one run.  Single-use: attach, run, read log."""

    #: Default parameters when a fault omits ``value``.
    DEFAULT_DELAY = 0.05
    DEFAULT_JUMP = 0.25

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.rng = _derive_rng(seed, plan)
        self.log: List[FaultRecord] = []
        self._rt: Optional["Runtime"] = None
        # Per-fault trigger bookkeeping.
        self._remaining = [fault.times for fault in plan.faults]  # None = inf
        self._last_epoch = [-1] * len(plan.faults)

    # ------------------------------------------------------------------
    # Observer protocol (same shape as the detectors)
    # ------------------------------------------------------------------

    def attach(self, rt: "Runtime") -> None:
        self._rt = rt
        rt.sched.injector = self
        # Arm sentinel timers so the clock can reach `after_time` triggers
        # even when no program timer is pending.
        for fault in self.plan.faults:
            if fault.after_time is not None:
                rt.sched.clock.call_at(fault.after_time, lambda: None)

    # ------------------------------------------------------------------
    # Scheduler-side pulse
    # ------------------------------------------------------------------

    def pulse(self, sched: "Scheduler") -> bool:
        """Fire every due fault.  Returns True when anything fired."""
        acted = False
        for index, fault in enumerate(self.plan.faults):
            if not self._due(index, fault, sched):
                continue
            if fault.probability < 1.0 and self.rng.random() >= fault.probability:
                # The occurrence happened but the coin said no.
                self._consume(index, fault)
                continue
            if self._fire(index, fault, sched):
                self._consume(index, fault)
                acted = True
        return acted

    def next_due(self, sched: "Scheduler") -> Tuple[Optional[int], float]:
        """``(step, horizon)``: the first step at which :meth:`pulse` can
        act, or None when no fault can come due before the virtual clock
        moves, and the clock horizon, the earliest ``after_time`` an
        unspent fault is still waiting for (``inf`` when none is).

        Below the horizon only the step count brings a fault due.  The
        scheduler runs the compiled loop up to the returned step, lets it
        fire timers below the horizon only, and pulses at that step or
        once the clock reaches the horizon.
        """
        now = sched.clock.now
        due: Optional[int] = None
        horizon = inf
        for index, fault in enumerate(self.plan.faults):
            step, after = self._due_step(index, fault, now)
            if step is None:
                if after < horizon:
                    horizon = after
            elif due is None or step < due:
                due = step
        return due, horizon

    # ------------------------------------------------------------------
    # Trigger logic
    # ------------------------------------------------------------------

    def _due_step(self, index: int, fault: Fault,
                  now: float) -> Tuple[Optional[int], float]:
        """``(step, after)`` for fault ``index`` at clock ``now``: the step
        from which it is due, or None when it cannot come due before the
        clock moves, and the ``after_time`` it is still waiting for, or
        ``inf``.  A spent fault gives ``(None, inf)``; one whose
        ``after_time`` is still ahead gives ``(None, after_time)``, as a
        float (the compiled loop reads the horizon as one).  A recurring
        fault is due from the first step of the epoch after the last one
        it came due in, whatever the clock."""
        remaining = self._remaining[index]
        if remaining is not None and remaining <= 0:
            return None, inf
        if fault.every is not None:
            return (self._last_epoch[index] + 1) * fault.every, inf
        after = fault.after_time
        if after is not None and now < after:
            return None, float(after)
        return fault.at_step or 0, inf

    def _due(self, index: int, fault: Fault, sched: "Scheduler") -> bool:
        step, _ = self._due_step(index, fault, sched.clock.now)
        steps = sched.steps
        if step is None or steps < step:
            return False
        if fault.every is not None:
            self._last_epoch[index] = steps // fault.every
        return True

    def _consume(self, index: int, fault: Fault) -> None:
        if self._remaining[index] is not None:
            self._remaining[index] -= 1

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _fire(self, index: int, fault: Fault, sched: "Scheduler") -> bool:
        action = fault.action
        if action in ("kill", "delay", "wakeup", "panic"):
            return self._fire_goroutine_fault(index, fault, sched)
        if action == "cancel_ctx":
            return self._fire_cancel_storm(index, fault, sched)
        if action == "clock_jump":
            return self._fire_clock_jump(index, fault, sched)
        if action in ("chan_close", "chan_fill"):
            return self._fire_channel_fault(index, fault, sched)
        if action in ("crash", "restart", "crash_restart"):
            return self._fire_node_fault(index, fault, sched)
        if action.startswith("net_"):
            return self._fire_net_fault(index, fault, sched)
        raise AssertionError(f"unhandled action {action}")  # pragma: no cover

    def _matches_goroutine(self, fault: Fault, g) -> bool:
        if fault.target is None:
            # Never pick main implicitly: killing/panicking main just ends
            # the run and hides what the chaos was meant to exercise.
            return g.name != "main"
        return fnmatchcase(g.name or "", fault.target)

    def _fire_goroutine_fault(self, index: int, fault: Fault,
                              sched: "Scheduler") -> bool:
        states = {
            "kill": (GState.RUNNABLE, GState.BLOCKED),
            "panic": (GState.RUNNABLE, GState.BLOCKED),
            "delay": (GState.RUNNABLE,),
            "wakeup": (GState.BLOCKED,),
        }[fault.action]
        candidates = [g for g in sched.goroutines
                      if g.state in states and self._matches_goroutine(fault, g)]
        if fault.action == "delay":
            candidates = [g for g in candidates if g in sched._runnable]
        if not candidates:
            return False
        victims = (candidates if len(candidates) <= fault.count
                   else self.rng.sample(candidates, fault.count))
        fired = False
        for g in victims:
            if fault.action == "kill":
                done = sched.inject_kill(g)
            elif fault.action == "delay":
                done = sched.inject_delay(
                    g, fault.value if fault.value is not None else self.DEFAULT_DELAY)
            elif fault.action == "wakeup":
                done = sched.inject_wakeup(g)
            else:
                message = fault.value if fault.value is not None else "chaos: injected panic"
                done = sched.inject_panic(g, GoPanic(message))
            if done:
                self._record(index, fault, sched, victim=f"g{g.gid}:{g.name}")
                fired = True
        return fired

    def _fire_cancel_storm(self, index: int, fault: Fault,
                           sched: "Scheduler") -> bool:
        rt = self._rt
        if rt is None:
            return False
        live = [ctx for ctx in rt._cancel_contexts if ctx.err() is None]
        if not live:
            return False
        victims = (live if len(live) <= fault.count
                   else self.rng.sample(live, fault.count))
        for ctx in victims:
            ctx.cancel()
            self._record(index, fault, sched, victim=repr(ctx))
        return True

    def _fire_clock_jump(self, index: int, fault: Fault,
                         sched: "Scheduler") -> bool:
        delta = fault.value if fault.value is not None else self.DEFAULT_JUMP
        callbacks = sched.clock.advance(delta)
        self._record(index, fault, sched, victim=f"clock+{delta:g}s",
                     detail={"timers_fired": len(callbacks)})
        sched.fire_timers(callbacks)
        return True

    def _fire_channel_fault(self, index: int, fault: Fault,
                            sched: "Scheduler") -> bool:
        rt = self._rt
        if rt is None:
            return False

        def matches(ch) -> bool:
            return fault.target is None or fnmatchcase(ch.name or "", fault.target)

        if fault.action == "chan_close":
            candidates = [ch for ch in rt._channels
                          if not ch.closed and matches(ch)]
        else:
            candidates = [ch for ch in rt._channels
                          if not ch.closed and ch.capacity > 0
                          and len(ch) < ch.capacity and matches(ch)]
        if not candidates:
            return False
        victims = (candidates if len(candidates) <= fault.count
                   else self.rng.sample(candidates, fault.count))
        for ch in victims:
            if fault.action == "chan_close":
                ch.close()
                self._record(index, fault, sched, victim=f"chan:{ch.name}")
            else:
                stuffed = 0
                while len(ch._buf) < ch.capacity:
                    ch._buf.append((ch._next_seq(), fault.value))
                    stuffed += 1
                self._record(index, fault, sched, victim=f"chan:{ch.name}",
                             detail={"stuffed": stuffed})
        return True

    #: Virtual seconds between crash and restart when ``crash_restart``
    #: omits ``value``.
    DEFAULT_RESTART_DELAY = 0.25

    @staticmethod
    def _matches_node(fault: Fault, name: str) -> bool:
        """Node-fault target match: the node name itself, or the
        ``"<node>/*"`` machine glob the kill action established."""
        target = fault.target
        if target is None:
            return True
        return (fnmatchcase(name, target)
                or (target.endswith("/*") and fnmatchcase(name, target[:-2])))

    def _fire_node_fault(self, index: int, fault: Fault,
                         sched: "Scheduler") -> bool:
        """crash / restart / crash_restart against registered fabric nodes.

        A crash is crash-stop plus disk semantics: the node's goroutines
        die, peers see connection resets, and un-fsynced WAL records are
        discarded.  ``crash_restart`` additionally arms a virtual-clock
        timer that calls ``node.restart()`` after ``value`` seconds —
        recovery then runs in the node's fresh boot goroutine.  Victim
        choice (when ``target`` is None) comes from the injector RNG, so
        the whole lifecycle replays from ``(seed, plan)``.
        """
        rt = self._rt
        if rt is None or not rt._networks:
            return False
        nodes = [node for net in rt._networks
                 for node in net.nodes.values()
                 if self._matches_node(fault, node.name)]
        if fault.action == "restart":
            candidates = [n for n in nodes if n.stopped]
        else:
            candidates = [n for n in nodes if not n.stopped]
        if not candidates:
            return False
        if len(candidates) <= fault.count:
            victims = candidates
        else:
            victims = self.rng.sample(candidates, fault.count)
        fired = False
        for node in victims:
            if fault.action == "restart":
                if node.restart():
                    self._record(index, fault, sched,
                                 victim=f"node:{node.name}",
                                 detail={"incarnation": node.incarnation})
                    fired = True
                continue
            lost = node.crash()
            if lost is None:
                continue
            detail: Dict[str, Any] = {"lost_writes": lost}
            if fault.action == "crash_restart":
                delay = (fault.value if fault.value is not None
                         else self.DEFAULT_RESTART_DELAY)
                detail["restart_after"] = delay
                # The timer fires in scheduler context; restart() defers
                # recovery to the node's boot goroutine.  A supervisor may
                # have revived the node first — restart() is then a no-op.
                sched.clock.call_after(delay, node.restart)
            self._record(index, fault, sched, victim=f"node:{node.name}",
                         detail=detail)
            fired = True
        return fired

    #: Defaults for network faults omitting ``value``.
    DEFAULT_NET_RATE = 0.1
    DEFAULT_NET_DELAY = 0.05

    #: net_* rate actions -> Network.set_fault_rate kinds.
    _NET_RATE_KINDS = {
        "net_drop": "drop",
        "net_dup": "duplicate",
        "net_reorder": "reorder",
        "net_delay": "delay",
    }

    def _fire_net_fault(self, index: int, fault: Fault,
                        sched: "Scheduler") -> bool:
        rt = self._rt
        if rt is None or not rt._networks:
            return False
        fired = False
        for net in rt._networks:
            if fault.action == "net_partition":
                groups = self._partition_groups(fault, net)
                if groups is None:
                    continue
                net.partition(*groups)
                self._record(index, fault, sched, victim=f"net:{net.name}",
                             detail={"groups": [sorted(g) for g in groups]})
            elif fault.action == "net_heal":
                if not net.partitioned:
                    continue
                net.heal()
                self._record(index, fault, sched, victim=f"net:{net.name}")
            else:
                kind = self._NET_RATE_KINDS[fault.action]
                pattern = fault.target or "*"
                default = (self.DEFAULT_NET_DELAY if kind == "delay"
                           else self.DEFAULT_NET_RATE)
                value = fault.value if fault.value is not None else default
                net.set_fault_rate(kind, pattern, value)
                self._record(index, fault, sched,
                             victim=f"net:{net.name}[{pattern}]",
                             detail={"kind": kind, "value": value})
            fired = True
        return fired

    def _partition_groups(self, fault: Fault, net) -> Optional[List[List[str]]]:
        """Resolve a net_partition fault to concrete node-name groups."""
        value = fault.value
        if (isinstance(value, (list, tuple)) and value
                and isinstance(value[0], (list, tuple))):
            return [list(group) for group in value]
        names = sorted(net.nodes)
        if len(names) < 2:
            return None
        if fault.target is not None:
            isolated = [n for n in names if fnmatchcase(n, fault.target)]
        else:
            isolated = [self.rng.choice(names)]
        rest = [n for n in names if n not in isolated]
        if not isolated or not rest:
            return None
        return [isolated, rest]

    # ------------------------------------------------------------------

    def _record(self, index: int, fault: Fault, sched: "Scheduler",
                victim: str, detail: Optional[Dict[str, Any]] = None) -> None:
        record = FaultRecord(
            step=sched.steps,
            time=sched.clock.now,
            action=fault.action,
            plan=self.plan.name,
            fault_index=index,
            victim=victim,
            detail=detail or {},
        )
        self.log.append(record)
        sched.emit(EventKind.INJECT, gid=0,
                   info={"action": fault.action, "victim": victim,
                         "plan": self.plan.name, "fault": index})

    @property
    def fired(self) -> int:
        return len(self.log)

    def __repr__(self) -> str:
        return (f"<FaultInjector plan={self.plan.name!r} seed={self.seed} "
                f"fired={len(self.log)}>")
