"""Vector clocks for happens-before reasoning.

The implementation lives in :mod:`repro.runtime._hotloop` (array-backed,
used by the happens-before engine :class:`repro.detect.hb.HBEngine`);
this module keeps the historical import location for the detectors.  Epoch
pairs ``(gid, count)`` give FastTrack-style O(1) ordered-with-current
checks.
"""

from __future__ import annotations

from ..runtime._hotloop import VectorClock

__all__ = ["VectorClock"]
