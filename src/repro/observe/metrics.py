"""An expvar-style metrics registry over the deterministic runtime.

Four instrument kinds, all driven exclusively by trace events and the
virtual clock so that a metrics dump is a pure function of ``(program,
seed, options)``:

* :class:`Counter` — monotonically increasing event count.
* :class:`Gauge` — last-write-wins level with min/max tracking.
* :class:`Histogram` — bucketed distribution (virtual-clock wait times,
  queue depths); buckets are fixed at construction so dumps are stable.
* :class:`TimeSeries` — change-compressed ``(step, value)`` samples, for
  "over time" views (runnable-queue depth, channel occupancy).

Everything renders to a deterministic dict: keys sorted, floats left
exactly as the simulation produced them, no wall-clock anywhere.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain
from operator import itemgetter
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

Number = Union[int, float]

#: Default histogram bucket upper bounds (last bucket is +Inf, implicit).
#: Powers of two cover both step counts and small queue depths well.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A level that can go up and down; remembers its extremes."""

    __slots__ = ("name", "value", "max", "min", "_touched")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self.max: Number = 0
        self.min: Number = 0
        self._touched = False

    def set(self, value: Number) -> None:
        if not self._touched:
            self.max = self.min = value
            self._touched = True
        self.value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    def add(self, delta: Number) -> None:
        self.set(self.value + delta)

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value,
                "max": self.max, "min": self.min}


class Histogram:
    """A fixed-bucket distribution of observed values.

    ``bounds`` are inclusive upper edges; one overflow bucket catches the
    rest.  Count, sum, min and max ride along so means and tails can be
    reported without the raw samples.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min",
                 "max")

    def __init__(self, name: str, bounds: Optional[Sequence[Number]] = None):
        self.name = name
        self.bounds: Tuple[Number, ...] = tuple(bounds if bounds is not None
                                                else DEFAULT_BOUNDS)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"{name}: histogram bounds must be ascending")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: float = 0.0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # First bound >= value; NaN compares false everywhere, so it goes
        # to the overflow bucket.
        if value == value:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
        else:
            self.bucket_counts[-1] += 1

    def observe_counts(self, counts: Mapping[int, int]) -> None:
        """Observe each integer ``value`` ``counts[value]`` times.

        The same histogram as that many :meth:`observe` calls in any
        order: an integer sum is exact in float, so it does not depend
        on the order it is added up in.
        """
        for value, n in counts.items():
            self.count += n
            self.sum += value * n
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.bucket_counts[bisect_left(self.bounds, value)] += n

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        buckets = {f"le={bound:g}": count
                   for bound, count in zip(self.bounds, self.bucket_counts)
                   if count}
        if self.bucket_counts[-1]:
            buckets["le=+Inf"] = self.bucket_counts[-1]
        return {"type": "histogram", "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max, "buckets": buckets}


class TimeSeries:
    """Change-compressed samples of one value over scheduler steps.

    A sample is recorded only when the value changes, and the series is
    capped: once ``max_samples`` is hit, further changes only update the
    drop counter (the aggregate view lives in a companion histogram).
    """

    __slots__ = ("name", "max_samples", "samples", "dropped", "_last")

    def __init__(self, name: str, max_samples: int = 4096):
        self.name = name
        self.max_samples = max_samples
        self.samples: List[Tuple[Number, Number]] = []
        self.dropped = 0
        self._last: Optional[Number] = None

    def sample(self, step: Number, value: Number) -> None:
        if value == self._last:
            return
        self._last = value
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return
        self.samples.append((step, value))

    def extend(self, points: Iterable[Tuple[Number, Number]]) -> None:
        """:meth:`sample` every ``(step, value)`` of ``points``, in order."""
        points = list(points)
        previous = chain((self._last,), map(itemgetter(1), points))
        changes = [point for point, last in zip(points, previous)
                   if point[1] != last]
        if not changes:
            return
        self._last = changes[-1][1]
        room = max(self.max_samples - len(self.samples), 0)
        self.samples.extend(changes[:room])
        self.dropped += max(len(changes) - room, 0)

    def to_dict(self) -> dict:
        return {"type": "timeseries",
                "samples": [list(s) for s in self.samples],
                "dropped": self.dropped}


Metric = Union[Counter, Gauge, Histogram, TimeSeries]


class MetricsRegistry:
    """Named metrics with get-or-create accessors and a stable dump."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get(name, lambda: Counter(name))
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} is a {type(metric).__name__}, not Counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get(name, lambda: Gauge(name))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} is a {type(metric).__name__}, not Gauge")
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Sequence[Number]] = None) -> Histogram:
        metric = self._get(name, lambda: Histogram(name, bounds))
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} is a {type(metric).__name__}, not Histogram")
        return metric

    def timeseries(self, name: str, max_samples: int = 4096) -> TimeSeries:
        metric = self._get(name, lambda: TimeSeries(name, max_samples))
        if not isinstance(metric, TimeSeries):
            raise TypeError(f"{name} is a {type(metric).__name__}, not TimeSeries")
        return metric

    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def to_dict(self) -> Dict[str, dict]:
        return {name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def render(self) -> str:
        """A flat, aligned text dump (counters and gauges; histogram means)."""
        lines = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                lines.append(f"{name:<44} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"{name:<44} {metric.value} (max {metric.max})")
            elif isinstance(metric, Histogram):
                lines.append(f"{name:<44} n={metric.count} mean={metric.mean:g} "
                             f"max={metric.max if metric.max is not None else '-'}")
            else:
                lines.append(f"{name:<44} {len(metric.samples)} samples")
        return "\n".join(lines)
