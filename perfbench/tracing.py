"""Per-layer measurement for the traced perfbench sample.

Three recorders, all active only while a unit runs:

* :class:`Spans` — a span (name, unit, start, end, parent) around each
  public call the workloads make, plus aggregate-only spans for calls too
  frequent to keep one by one (detector ``on_event``).  A span's self time
  is its duration minus the time its child spans cover.
* :class:`Sampler` — a profiling timer that reads the running frame every
  millisecond and charges the elapsed time to the module of the innermost
  ``repro`` frame.  ``cProfile`` cannot do this job: goroutines run on
  their own continuation stacks, so it charges much of their time to the
  compiled loop that switches to them.
* :class:`GcClock` — time the cyclic collector spends, from
  ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import os
import signal
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Module prefix -> layer, longest prefix first.  ``dataset``, ``study``
#: and ``cli`` are not layers a workload exercises.
LAYER_PREFIXES = (
    ("repro.runtime.scheduler", "runtime.scheduler"),
    ("repro.runtime.goroutine", "runtime.goroutine"),
    ("repro.runtime.clock", "runtime.clock"),
    ("repro.runtime.trace", "runtime.trace"),
    ("repro.runtime", "runtime.other"),
    ("repro.chan", "chan"),
    ("repro.sync", "sync"),
    ("repro.stdlib", "stdlib"),
    ("repro.net", "net"),
    ("repro.detect", "detect"),
    ("repro.predict", "predict"),
    ("repro.static", "static"),
    ("repro.parallel", "parallel"),
    ("repro.inject", "inject"),
    ("repro.observe", "observe"),
    ("repro.apps", "user"),
    ("repro.bugs", "user"),
    ("repro.patterns", "user"),
)

_HERE = os.path.dirname(os.path.abspath(__file__))
_SKIP = ""  # frames outside repro and perfbench: keep walking outwards


def _classify(code: Any, module: str) -> str:
    if code is GcClock.__call__.__code__:
        # The collector runs in C; the first Python frame after a long
        # collection is the callback reporting its end.
        return "gc"
    if module.startswith("repro."):
        for prefix, layer in LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return "other"
    if code.co_filename.startswith(_HERE):
        return "harness"
    return _SKIP


class Spans:
    """Spans around the workloads' calls into the program, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, unit, start, end, parent index, child seconds]``.
        self.spans: List[List[Any]] = []
        #: name -> [calls, seconds] for aggregate-only spans.
        self.hot_totals: Dict[str, List[float]] = {}
        self.unit: Optional[str] = None
        self._open: List[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, self.unit, perf_counter(), 0.0, parent, 0.0])

    def end(self) -> None:
        span = self.spans[self._open.pop()]
        span[3] = perf_counter()
        if span[4] >= 0:
            self.spans[span[4]][5] += span[3] - span[2]

    def hot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in an aggregate-only span: calls and seconds are
        summed per name and charged to the enclosing span as child time."""
        totals = self.hot_totals.setdefault(name, [0, 0.0])
        spans, open_ = self.spans, self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                totals[0] += 1
                totals[1] += took
                if open_:
                    spans[open_[-1]][5] += took

        return traced

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for name, _unit, start, end, _parent, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child
        for name, (calls, seconds) in self.hot_totals.items():
            out[name] = {"calls": calls, "busy_s": seconds, "self_s": seconds}
        return out


class Sampler:
    """Charges elapsed time to the layer the main thread is executing.

    A ``SIGPROF`` interval timer interrupts the process every millisecond
    of CPU time; the handler runs on the main thread with the interrupted
    frame and charges the wall time since the previous sample to that
    frame's layer.  A sampler thread reading ``sys._current_frames()``
    would need a GIL hand-off per sample, which costs far more than the
    sample on a small shared host.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.active = False
        self.seconds: Counter = Counter()
        self.samples = 0
        self._last = 0.0
        self._layers: Dict[Any, str] = {}

    def layer_of(self, frame: Any) -> str:
        layers = self._layers
        while frame is not None:
            code = frame.f_code
            layer = layers.get(code)
            if layer is None:
                layer = _classify(code, frame.f_globals.get("__name__", ""))
                layers[code] = layer
            if layer:
                return layer
            frame = frame.f_back
        return "other"

    def _sample(self, signum: int, frame: Any) -> None:
        now = perf_counter()
        if self.active:
            self.seconds[self.layer_of(frame)] += now - self._last
            self.samples += 1
        self._last = now

    def start(self) -> None:
        self._last = perf_counter()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


class GcClock:
    """Seconds and collections of the cyclic GC while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.busy_s = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        elif self.active:
            self.busy_s += perf_counter() - self._t0
            self.collections += 1


class Tracing:
    """The recorders of one traced sample, switched on per unit."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.sampler = Sampler()
        self.gc = GcClock()

    def start(self) -> None:
        gc.callbacks.append(self.gc)
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()
        gc.callbacks.remove(self.gc)

    def begin_unit(self, name: str) -> None:
        self.spans.unit = name
        self.spans.begin("unit")
        self.sampler.active = self.gc.active = True

    def end_unit(self) -> None:
        self.sampler.active = self.gc.active = False
        self.spans.end()

    def report(self, timed_s: float) -> Dict[str, Any]:
        """The layer table: sampled self seconds per layer, span table,
        GC time and how much of the timed span the samples cover."""
        sampled = sum(self.sampler.seconds.values())
        return {
            "timed_s": timed_s,
            "self_s": dict(self.sampler.seconds),
            "samples": self.sampler.samples,
            "coverage": sampled / timed_s if timed_s else 0.0,
            "spans": self.spans.table(),
            "gc_busy_s": self.gc.busy_s,
            "gc_collections": self.gc.collections,
        }

    def dump(self, path: str) -> None:
        """Write every kept span (times in microseconds from the first)."""
        import json

        origin = self.spans.spans[0][2] if self.spans.spans else 0.0
        rows = [[name, unit, round((start - origin) * 1e6),
                 round((end - origin) * 1e6), parent]
                for name, unit, start, end, parent, _child in self.spans.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "unit", "start_us", "end_us",
                                  "parent"],
                       "spans": rows,
                       "aggregated": self.spans.hot_totals}, handle)
