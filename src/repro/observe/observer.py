"""The Observer: one attachable trace consumer that builds every view.

Contract (the same one detectors follow, see DESIGN.md): the observer
reads the run, it never steers it.  At attach it turns on the
scheduler's ``capture_sites`` flag, asks for the scheduler's pick log
(:meth:`Scheduler.record_picks`) and has the trace keep its records
(:meth:`Trace.keep_records`, so a ``keep_trace=False`` run still records
them while its result carries no trace).  It never touches the RNG, the
runnable set, or primitive state — attaching an observer is guaranteed
not to change the schedule, which the determinism tests assert
bit-for-bit.  It installs no per-step or per-event callback, so an
observed run keeps the compiled drive loop and builds no event objects:
at ``finish`` it folds the event records, in order, into the
profiles and metrics, and derives the step counter, switch count and
runnable-depth histogram and series from the pick log.

Everything it derives — the metrics registry, the goroutine/block/mutex
profiles, the flamegraph stacks — is a pure function of the trace and the
pick log, so two same-seed runs produce byte-identical dumps.
"""
from __future__ import annotations

import json
from collections import Counter
from itertools import accumulate, compress
from operator import getitem, is_not, itemgetter
from typing import Any, Dict, List, Optional, Tuple

from ..runtime.scheduler import PickRecord
from ..runtime.trace import EventKind, Record, Trace
from .metrics import MetricsRegistry
from .profiles import GoroutineProfile, Profile, ProfileEntry, flamegraph

#: Samples kept per time series (runnable depth, channel occupancy).
_MAX_SERIES = 4096

#: Block reasons whose spans feed the mutex-contention profile.
_LOCK_REASONS = ("mutex.lock:", "rwmutex.lock:", "rwmutex.rlock:")

#: Event kind -> counter name (simple tallies).
_TALLY = {
    EventKind.CHAN_SEND: "chan.sends",
    EventKind.CHAN_RECV: "chan.recvs",
    EventKind.CHAN_CLOSE: "chan.closes",
    EventKind.CHAN_MAKE: "chan.made",
    EventKind.SELECT_COMMIT: "select.commits",
    EventKind.MU_LOCK: "mutex.acquires",
    EventKind.MU_UNLOCK: "mutex.releases",
    EventKind.RW_LOCK: "rwmutex.wlocks",
    EventKind.RW_RLOCK: "rwmutex.rlocks",
    EventKind.WG_WAIT: "waitgroup.waits",
    EventKind.ONCE_DO: "once.dos",
    EventKind.COND_WAIT: "cond.waits",
    EventKind.ATOMIC_OP: "atomic.ops",
    EventKind.MEM_READ: "mem.reads",
    EventKind.MEM_WRITE: "mem.writes",
    EventKind.SLEEP: "time.sleeps",
    EventKind.TIMER_FIRE: "time.timer_fires",
    EventKind.EXTERNAL_WAIT: "external.waits",
    EventKind.INJECT: "inject.faults",
    EventKind.GO_PANIC: "go.panics",
    EventKind.NET_SEND: "net.sends",
    EventKind.NET_RECV: "net.recvs",
    EventKind.NET_DROP: "net.drops",
    EventKind.NET_DIAL: "net.dials",
    EventKind.NET_PARTITION: "net.partitions",
    EventKind.NET_HEAL: "net.heals",
}

#: Bucket bounds for per-link delivery latency (virtual seconds).
_NET_LATENCY_BOUNDS = (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
                       0.2, 0.5, 1.0)


#: Event kinds the observer tracks one by one; every other kind is only
#: tallied.
_TRACKED = frozenset({
    EventKind.GO_CREATE, EventKind.GO_BLOCK, EventKind.GO_UNBLOCK,
    EventKind.GO_END, EventKind.GO_PANIC, EventKind.CHAN_MAKE,
    EventKind.CHAN_SEND, EventKind.CHAN_RECV, EventKind.NET_RECV,
    EventKind.NET_DROP,
})

#: A closed block span: ``(its GO_BLOCK record, end step, end time,
#: still_blocked)``.
_Span = Tuple[Record, int, float, int]


class Observer:
    """pprof/expvar-style observability over one deterministic run.

    Attach via ``run(main, observe=Observer(...))`` (or ``observe=True``
    for the defaults).  After the run, the observer exposes:

    * ``metrics`` — the :class:`MetricsRegistry`.
    * ``block_profile`` / ``mutex_profile`` / ``goroutine_profile``.
    * ``render()`` — the full text report; ``flamegraph()`` — text flame.
    * ``to_dict()`` / ``to_json()`` — stable machine-readable dumps.

    Args:
        capture_sites: record user call-site stacks on every block (the
            pprof-style attribution); off saves the frame walk.
        track_occupancy: per-channel occupancy histograms + series.
    """

    def __init__(self, capture_sites: bool = True,
                 track_occupancy: bool = True):
        self.capture_sites = capture_sites
        self.track_occupancy = track_occupancy

        self.metrics = MetricsRegistry()
        self.block_profile = Profile("block", ("primitive", "site"))
        self.mutex_profile = Profile("mutex", ("lock", "site"))
        self.goroutine_profile = GoroutineProfile()

        # Trace-derived goroutine book-keeping.
        self._g_state: Dict[int, str] = {}
        self._g_name: Dict[int, str] = {}
        self._g_site: Dict[int, str] = {}
        #: gid -> the ``GO_BLOCK`` record of its in-flight block.
        self._open: Dict[int, Record] = {}
        #: Closed spans in close order, folded into the profiles at finish.
        self._spans: List[_Span] = []
        self._flame: Dict[Tuple[str, ...], int] = {}

        # Channel book-keeping: cid -> label, and cid -> the ``(step,
        # +1 or -1)`` of each buffered op, folded into occupancy at finish.
        self._chan_label: Dict[int, str] = {}
        self._chan_ops: Dict[int, List[Tuple[int, int]]] = {}

        # The run's logs, read at finish: the trace from its record at
        # attach on, and the pick log.
        self._trace: Optional[Trace] = None
        self._first_record = 0
        self._picks: Optional[List[Optional[PickRecord]]] = None
        self._attached = False
        self._finished = False
        self.result: Optional[Any] = None

        # Scheduler-step instruments: filled from the pick log at finish.
        self._steps_counter = self.metrics.counter("sched.steps")
        self._switch_counter = self.metrics.counter("sched.switches")
        self._depth_hist = self.metrics.histogram("sched.runnable_depth")
        self._depth_series = self.metrics.timeseries(
            "sched.runnable_depth.series", _MAX_SERIES)

    # ------------------------------------------------------------------
    # Attachment (the observers=/observe= protocol)
    # ------------------------------------------------------------------

    def attach(self, rt: Any) -> None:
        if self._attached:
            raise RuntimeError(
                "Observer instances are single-run; create a fresh one "
                "per run so dumps stay a pure function of (program, seed)")
        self._attached = True
        sched = rt.sched
        if self.capture_sites:
            sched.capture_sites = True
        self._picks = sched.record_picks()
        self._trace = sched.trace
        self._first_record = len(self._trace.records())
        self._trace.keep_records()

    # ------------------------------------------------------------------
    # Scheduler steps, from the pick log
    # ------------------------------------------------------------------

    def _count_steps(self, log: List[Optional[PickRecord]]) -> None:
        picks = ([pick for pick in log if pick is not None]  # drop selects
                 if None in log else log)
        offered = list(map(itemgetter(1), picks))
        depths = list(map(len, offered))
        ran = list(map(getitem, offered, map(itemgetter(2), picks)))
        self._steps_counter.value += len(picks)
        # One goroutine object per gid, so a switch is a change of object.
        self._switch_counter.value += sum(map(is_not, ran[1:], ran))
        self._depth_hist.observe_counts(Counter(depths))
        self._depth_series.extend(zip(map(itemgetter(0), picks), depths))

    # ------------------------------------------------------------------
    # Trace consumption
    # ------------------------------------------------------------------

    def _consume(self, records: List[Record]) -> None:
        """Fold the run's event records, in order, into every view."""
        metrics = self.metrics
        kinds = Counter(map(itemgetter(3), records))
        for kind, n in kinds.items():
            tally = _TALLY.get(kind)
            if tally is not None:
                metrics.counter(tally).inc(n)
        if kinds[EventKind.GO_BLOCK]:
            metrics.counter("go.blocks").inc(kinds[EventKind.GO_BLOCK])
        if kinds[EventKind.GO_CREATE]:
            metrics.counter("go.spawned").inc(kinds[EventKind.GO_CREATE])
        g_state = self._g_state
        open_spans = self._open
        spans = self._spans
        chan_ops = self._chan_ops if self.track_occupancy else None
        tracked = compress(records,
                           map(_TRACKED.__contains__, map(itemgetter(3),
                                                          records)))
        for record in tracked:
            step, time, gid, kind, obj, info = record
            if kind == EventKind.GO_BLOCK:
                # The record is the open span.  The goroutine's "blocked:"
                # state is set at finish, for spans still open then: an
                # unblock or end would have overwritten it.
                open_spans[gid] = record
            elif kind == EventKind.GO_UNBLOCK:
                g_state[obj] = "runnable"
                span = open_spans.pop(obj, None)
                if span is not None:
                    spans.append((span, step, time, 0))
            elif kind == EventKind.CHAN_SEND:
                if chan_ops is not None and not info.get("sync", False):
                    chan_ops.setdefault(obj, []).append((step, +1))
            elif kind == EventKind.CHAN_RECV:
                if (chan_ops is not None and not info.get("sync", False)
                        and "seq" in info):
                    chan_ops.setdefault(obj, []).append((step, -1))
            elif kind == EventKind.GO_CREATE:
                g_state[obj] = "runnable"
                self._g_name[obj] = str(info.get("name", f"g{obj}"))
                self._g_site[obj] = str(info.get("site") or "?")
                metrics.gauge("go.live").add(1)
                if info.get("anonymous"):
                    metrics.counter("go.spawned_anonymous").inc()
            elif kind == EventKind.GO_END or kind == EventKind.GO_PANIC:
                g_state[gid] = ("done" if kind == EventKind.GO_END
                                else "panicked")
                open_spans.pop(gid, None)
                metrics.gauge("go.live").add(-1)
            elif kind == EventKind.CHAN_MAKE:
                name = info.get("name", f"chan#{obj}")
                self._chan_label[obj] = f"{name}#{obj}"
            elif kind == EventKind.NET_RECV:
                link = info.get("link")
                latency = info.get("latency")
                if link is not None and latency is not None:
                    metrics.histogram(f"net.latency_s[{link}]",
                                      bounds=_NET_LATENCY_BOUNDS
                                      ).observe(latency)
            else:  # NET_DROP
                link = info.get("link")
                if link is not None:
                    metrics.counter(f"net.drops[{link}]").inc()

    def _fold_occupancy(self) -> None:
        """Each channel's buffered level after every op, as a histogram
        and a series."""
        for cid, ops in self._chan_ops.items():
            label = self._chan_label.get(cid, f"chan#{cid}")
            levels = list(accumulate(map(itemgetter(1), ops)))
            self.metrics.histogram(f"chan.occupancy[{label}]"
                                   ).observe_counts(Counter(levels))
            self.metrics.timeseries(f"chan.occupancy[{label}].series",
                                    _MAX_SERIES
                                    ).extend(zip(map(itemgetter(0), ops),
                                                 levels))

    def _fold_spans(self) -> None:
        """Feed every closed span to the block and mutex profiles, the
        wait histograms and the flamegraph, in close order: float
        addition is not associative, and the observer goldens pin every
        sum's last bit."""
        metrics = self.metrics
        flame = self._flame
        g_name = self._g_name
        #: primitive -> the wait steps of its spans
        wait_steps: Dict[str, List[int]] = {}
        #: (reason, site) -> (primitive, its wait steps, block row, mutex
        #: row or None)
        rows: Dict[Tuple[str, str], Tuple[str, List[int], ProfileEntry,
                                          Optional[ProfileEntry]]] = {}
        for span, end_step, end_time, still_blocked in self._spans:
            start_step, start_time, gid, _kind, _obj, info = span
            # Scheduler.block's details: a str reason, and with sites
            # captured a str site and a non-empty stack tuple.
            reason = info.get("reason", "?")
            site = info.get("site", "?")
            row = rows.get((reason, site))
            if row is None:
                primitive, _, lock = reason.partition(":")
                row = rows[reason, site] = (
                    primitive, wait_steps.setdefault(primitive, []),
                    self.block_profile.entry((primitive, site)),
                    self.mutex_profile.entry((lock or "?", site))
                    if reason.startswith(_LOCK_REASONS) else None)
            primitive, waits, block_row, mutex_row = row
            steps = end_step - start_step
            seconds = end_time - start_time
            block_row.add(steps, seconds, still_blocked)
            if mutex_row is not None:
                mutex_row.add(steps, seconds, still_blocked)
            waits.append(steps)
            if seconds > 0:
                metrics.histogram(
                    f"block.wait_seconds[{primitive}]").observe(seconds)
            # Flamegraph stack: outermost user frame first, reason as the
            # leaf.
            stack = info.get("stack", ())
            if stack:
                frames = stack[::-1] + (reason,)
            else:
                frames = (g_name.get(gid, f"g{gid}"), reason)
            flame[frames] = flame.get(frames, 0) + steps
        for primitive, waits in wait_steps.items():
            metrics.histogram(
                f"block.wait_steps[{primitive}]").observe_counts(
                    Counter(waits))

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def finish(self, result: Any) -> None:
        """Close open spans against the end of the run and snapshot states."""
        if self._finished:
            return
        self._finished = True
        self.result = result
        if self._trace is not None:
            self._consume(self._trace.records()[self._first_record:])
            self._trace = None
        if self._picks is not None:
            self._count_steps(self._picks)
            self._picks = None
        end_step = result.steps
        end_time = result.end_time
        for gid in sorted(self._open):
            span = self._open[gid]
            self._g_state[gid] = f"blocked:{span[5].get('reason', '?')}"
            self._spans.append((span, end_step, end_time, 1))
        self._open.clear()
        self._fold_spans()
        self._fold_occupancy()
        self._spans.clear()
        self._chan_ops.clear()
        for gid in sorted(self._g_state):
            self.goroutine_profile.add(
                gid, self._g_state[gid],
                self._g_name.get(gid, f"g{gid}"),
                self._g_site.get(gid, "?"))
        peak = self.metrics.gauge("go.live").max
        self.metrics.gauge("go.peak_live").set(peak)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def flamegraph(self, width: int = 40) -> str:
        return flamegraph(sorted(self._flame.items()), width=width,
                          title="blocked-time flamegraph "
                                "(weight = scheduler steps blocked)")

    def _run_summary(self) -> dict:
        if self.result is None:
            return {}
        return {"status": self.result.status, "seed": self.result.seed,
                "steps": self.result.steps,
                "virtual_time": self.result.end_time}

    def render(self, top: int = 10) -> str:
        """The full text report (`repro profile` output)."""
        sections: List[str] = []
        summary = self._run_summary()
        if summary:
            sections.append(
                "run: " + " ".join(f"{k}={v}" for k, v in summary.items()))
        sections.append(self.goroutine_profile.render())
        sections.append(self.block_profile.render(top))
        sections.append(self.mutex_profile.render(top))
        sections.append("metrics:\n" + self.metrics.render())
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        """Stable, JSON-serializable dump of every derived view."""
        return {
            "run": self._run_summary(),
            "metrics": self.metrics.to_dict(),
            "profiles": {
                "goroutine": self.goroutine_profile.to_dict(),
                "block": self.block_profile.to_dict(),
                "mutex": self.mutex_profile.to_dict(),
            },
            "flame": [{"stack": list(stack), "steps": steps}
                      for stack, steps in sorted(self._flame.items())],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)
