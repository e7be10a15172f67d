"""Vector clocks for happens-before reasoning.

Used by the happens-before engine :class:`repro.detect.hb.HBEngine` and the
race rule built on it.  An access is ordered before a clock when the
clock's component for the accessing goroutine has reached the access's
own count: one ``get``, FastTrack-style.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union


class VectorClock:
    """A vector clock over goroutine ids, dense-array backed.

    Goroutine ids are small consecutive integers (the scheduler hands them
    out from 1), so a list indexed by gid beats a sparse dict on every hot
    operation: ``get`` is one index, ``join`` is an elementwise max with no
    hashing.  The API — and every observable result, including nonzero-
    filtered equality — is identical to the historical dict-backed clock.
    """

    __slots__ = ("_v",)

    def __init__(self,
                 counts: Union[None, Dict[int, int], List[int]] = None):
        if counts is None:
            self._v: List[int] = []
        elif type(counts) is list:  # internal fast path (copy/join results)
            self._v = counts[:]
        else:
            v: List[int] = []
            for gid, count in counts.items():
                if gid >= len(v):
                    v.extend([0] * (gid + 1 - len(v)))
                v[gid] = count
            self._v = v

    def get(self, gid: int) -> int:
        v = self._v
        return v[gid] if 0 <= gid < len(v) else 0

    def increment(self, gid: int) -> None:
        v = self._v
        if gid >= len(v):
            v.extend([0] * (gid + 1 - len(v)))
        v[gid] += 1

    def join(self, other: Optional["VectorClock"]) -> None:
        """Pointwise maximum: ``self = self ⊔ other``."""
        if other is None:
            return
        v, o = self._v, other._v
        if len(o) > len(v):
            v.extend([0] * (len(o) - len(v)))
        for gid, count in enumerate(o):
            if count > v[gid]:
                v[gid] = count

    def copy(self) -> "VectorClock":
        return VectorClock(self._v)

    def __le__(self, other: "VectorClock") -> bool:
        v, o = self._v, other._v
        olen = len(o)
        for gid, count in enumerate(v):
            if count > (o[gid] if gid < olen else 0):
                return False
        return True

    def _trimmed(self) -> List[int]:
        v = self._v
        n = len(v)
        while n and v[n - 1] == 0:
            n -= 1
        return v[:n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        # Zero components are indistinguishable from absent ones, exactly
        # as the sparse clock's nonzero-filtered comparison had it.
        return self._trimmed() == other._trimmed()

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(self._trimmed()))

    def concurrent_with(self, other: "VectorClock") -> bool:
        return not (self <= other) and not (other <= self)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter([(gid, count)
                     for gid, count in enumerate(self._v) if count])

    def __repr__(self) -> str:
        inner = ",".join(f"g{g}:{c}" for g, c in self.items())
        return f"VC({inner})"


__all__ = ["VectorClock"]
