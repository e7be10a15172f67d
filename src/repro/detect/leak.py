"""Leak reporting.

Turns a finished :class:`~repro.runtime.runtime.RunResult` into structured
:class:`~repro.detect.report.LeakReport` records.  Seed sweeps that
estimate how often a nondeterministic leak manifests (the paper's "run
the buggy program a lot of times") go through
:func:`repro.parallel.sweep_seeds` with :func:`~repro.runtime.runtime.is_stuck` or
a kernel's ``manifested`` as the predicate.
"""

from __future__ import annotations

from typing import List, Sequence

from ..runtime.goroutine import Goroutine
from ..runtime.runtime import RunResult
from .report import LeakReport


def leak_reports(result: RunResult) -> List[LeakReport]:
    """Extract one report per goroutine stuck at the end of the run.

    ``result.leaked`` already covers every terminal flavor of "stuck":
    post-drain leaks, all-asleep deadlocks, external-wait hangs, and
    blocked-at-timeout suspects.
    """
    stuck: Sequence[Goroutine] = result.leaked
    return [
        LeakReport(
            gid=g.gid,
            name=g.name,
            reason=g.block_reason or "unknown",
            creation_site=g.creation_site,
        )
        for g in stuck
    ]
