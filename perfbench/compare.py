"""Compare two perfbench result sets, workload by workload.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` name result sets in files written by ``collect.py``,
as ``FILE:SET`` or ``FILE`` for the file's first set, e.g.
``perfbench/results/seed.json:A perfbench/results/seed.json:B``.  Runs
pair up by seed.  For every end-to-end metric of ``BENCHMARK.json``:

* each side's median and quartiles over its runs;
* the share of pairs the new side won (ties count for neither);
* ``unresolved`` when either side's spread (quartile distance over
  median) exceeds the metric's bound, unless every new run beats every
  base run;
* otherwise ``REGRESSION`` when the new median is worse than the base
  median by more than the bound, ``gain`` when the new side won at least
  nine tenths of the pairs and the medians differ by more than the base
  quartile distance, and ``ok`` else.

Each workload also gets one summary row: how many pairs had equal output
witnesses and the failed ratio of each side.  Exit status 1 on any
regression, witness difference or failed-ratio difference.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(spec: str) -> Tuple[str, Dict[str, List[Dict[str, Any]]]]:
    path, _, name = spec.partition(":")
    with open(path, encoding="utf-8") as handle:
        sets = json.load(handle)["sets"]
    name = name or next(iter(sets))
    return f"{path}:{name}", sets[name]["runs"]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base: List[float], new: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int]:
    sign = 1 if better == "higher" else -1
    won = sum(1 for b, n in pairs if sign * (n - b) > 0)
    (bq1, bmed, bq3), (nq1, nmed, nq3) = quartiles(base), quartiles(new)
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    worse = sign * (bmed - nmed) / bmed
    if spread > bound:
        beats_all = (min(new) > max(base) if better == "higher"
                     else max(new) < min(base))
        return ("better" if beats_all else "unresolved"), won
    if worse > bound:
        return "REGRESSION", won
    if (pairs and won >= 0.9 * len(pairs) and sign * (nmed - bmed) > 0
            and abs(nmed - bmed) > bq3 - bq1):
        return "gain", won
    return "ok", won


def failed_ratio(runs: List[Dict[str, Any]]) -> float:
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_name, base), (new_name, new) = load(argv[0]), load(argv[1])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    print(f"base {base_name}\nnew  {new_name}\n")
    print(f"{'workload':<16} {'metric':<15} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'delta':>8} {'won':>6} "
          f"{'bound':>6}  verdict")
    summaries = []
    bad = False
    for workload in [w for w in base if w in new]:
        by_seed = {r["seed"]: r for r in new[workload]}
        paired = [(r, by_seed[r["seed"]]) for r in base[workload]
                  if r["seed"] in by_seed]
        for metric in metrics:
            name = metric["name"]
            b = [r["end_to_end"][name]["value"] for r in base[workload]]
            n = [r["end_to_end"][name]["value"] for r in new[workload]]
            pairs = [(rb["end_to_end"][name]["value"],
                      rn["end_to_end"][name]["value"]) for rb, rn in paired]
            outcome, won = verdict(b, n, pairs, metric["better"],
                                   metric["bound"])
            bad |= outcome == "REGRESSION"
            bq, nq = quartiles(b), quartiles(n)
            print(f"{workload:<16} {name:<15} {cell(bq):>30} {cell(nq):>30} "
                  f"{100 * (nq[1] - bq[1]) / bq[1]:>+7.1f}% "
                  f"{won:>2}/{len(pairs):<3} {metric['bound']:>6.2f}  {outcome}")
        equal = sum(rb["witness"] == rn["witness"] for rb, rn in paired)
        ratios = failed_ratio(base[workload]), failed_ratio(new[workload])
        bad |= equal != len(paired) or ratios[0] != ratios[1]
        summaries.append(f"{workload:<16} {len(paired)} pairs, witnesses "
                         f"equal {equal}/{len(paired)}, failed_ratio "
                         f"{ratios[0]:.4f} vs {ratios[1]:.4f}")
    print()
    print("\n".join(summaries))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
