"""Run-cache counters, all zero: no layer caches runs (every repeat is a new
seed or schedule, so identical runs never recur)."""

from typing import Dict


class _Counters:
    # Kept only because perfbench/worker.py reads ``memo.stats()``.
    def stats(self) -> Dict[str, int]:
        return {"entries": 0, "hits": 0, "misses": 0}


memo = _Counters()
