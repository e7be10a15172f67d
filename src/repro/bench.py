"""Detector-quality documents: ``repro bench`` / ``python -m repro.bench``.

One document per flag, each scoring a triage tier and pricing its savings:

* ``--predict`` — offline predictive analysis of one recorded run vs the
  dynamic detectors over manifestation sweeps (``BENCH_predict.json``);
* ``--static`` — the zero-execution scan vs the ground-truth taxonomy
  labels (``BENCH_static.json``; CI's static recall gate reads it).

Both price a clean triage verdict as the schedule search it skips on the
bug-free exploration bench kernels.  Simulator timing lives in perfbench
(``python3 perfbench/run.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Bump when a document's key layout changes.  The last bump (5) was for
#: simulator sections since deleted; the predict and static layouts
#: predate it.
SCHEMA = 5

# Fixed variants that explore to exhaustion quickly enough to benchmark,
# chosen across sub-causes (channel, channel+lock, message library, mutex,
# condition variable).  Savings on these are representative of the corpus.
EXPLORE_KERNELS = (
    "blocking-chan-cockroach-missing-case",
    "blocking-chan-etcd-error-path-no-send",
    "blocking-chanmix-docker-send-under-lock",
    "blocking-msglib-cockroach-ctx-no-cancel",
    "blocking-mutex-kubernetes-abba",
    "blocking-wait-kubernetes-cond-missed-signal",
)


def triage_savings(triage_kernel: Callable[..., Any], clean_cost: int,
                   kernel_ids: Sequence[str], max_runs: int) -> Dict[str, Any]:
    """A triage screen vs exploring each fixed kernel to exhaustion.

    ``triage_kernel(kernel, fixed=...)`` returns a verdict with
    ``needs_search``; ``clean_cost`` is the recorded runs a clean verdict
    still costs (predict records one, static none), so a clean kernel
    saves ``explore_runs - clean_cost``.  Every buggy variant must be
    flagged; one that is not is a false skip.
    """
    from .bugs import registry
    from .detect.systematic import explore_systematic

    kernels: Dict[str, Any] = {}
    false_skips = []
    for kid in kernel_ids:
        kernel = registry.get(kid)
        t0 = time.perf_counter()
        clean = triage_kernel(kernel, fixed=True)
        triage_s = time.perf_counter() - t0
        exploration = explore_systematic(
            kernel.fixed, stop_on=kernel.manifested, max_runs=max_runs,
            **dict(kernel.run_kwargs))
        dirty = triage_kernel(kernel, fixed=False)
        if not dirty.needs_search:
            false_skips.append(kid)
        kernels[kid] = {
            "explore_runs": exploration.runs,
            "explore_exhausted": exploration.exhausted,
            "triage_clean": not clean.needs_search,
            "runs_saved": (0 if clean.needs_search
                           else exploration.runs - clean_cost),
            "triage_s": round(triage_s, 4),
            "buggy_flagged": dirty.needs_search,
        }
    rows = kernels.values()
    return {
        "max_runs": max_runs,
        "kernels": kernels,
        "total_explore_runs": sum(row["explore_runs"] for row in rows),
        "total_runs_saved": sum(row["runs_saved"] for row in rows),
        "all_fixed_screened_clean": all(row["triage_clean"] for row in rows),
        "false_skips": false_skips,
    }


def run_predict_benchmarks(runs_per_kernel: int = 15,
                           triage_kernel_ids: Sequence[str] = EXPLORE_KERNELS,
                           max_runs: int = 800) -> Dict[str, Any]:
    """The ``predict`` section: recall and precision of one recorded run
    per kernel vs the dynamic detectors' sweeps, plus triage savings."""
    from .predict import (build_predict_scorecard, predict_precision,
                          predict_recall, triage_kernel)

    t0 = time.perf_counter()
    rows = build_predict_scorecard(runs_per_kernel=runs_per_kernel)
    scorecard_s = time.perf_counter() - t0
    agreements: Dict[str, int] = {}
    for row in rows:
        agreements[row.agreement] = agreements.get(row.agreement, 0) + 1
    return {
        "scorecard": {
            "kernels": len(rows),
            "runs_per_kernel": runs_per_kernel,
            "recall": round(predict_recall(rows), 4),
            "precision": round(predict_precision(rows), 4),
            "agreements": agreements,
            "predict_wall_s": round(sum(r.predict_wall_s for r in rows), 4),
            "scorecard_wall_s": round(scorecard_s, 4),
        },
        "triage": triage_savings(triage_kernel, clean_cost=1,
                                 kernel_ids=triage_kernel_ids,
                                 max_runs=max_runs),
    }


def run_static_benchmarks(triage_kernel_ids: Sequence[str] = EXPLORE_KERNELS,
                          max_runs: int = 800) -> Dict[str, Any]:
    """The ``static`` section: the corpus (both variants) and mini-apps
    scanned against the ground-truth labels, plus triage savings."""
    from .static import (build_static_scorecard, checker_timings, scan_apps,
                         static_precision, static_recall, triage_kernel)

    t0 = time.perf_counter()
    rows = build_static_scorecard()
    scorecard_s = time.perf_counter() - t0
    apps = scan_apps()
    return {
        "scorecard": {
            "kernels": len(rows),
            "caught": sum(1 for r in rows if r.caught),
            "missed": [r.kernel_id for r in rows if not r.caught],
            "false_positives": [r.kernel_id for r in rows
                                if r.fixed_flagged and r.fixed_expected_clean],
            "recall": round(static_recall(rows), 4),
            "precision": round(static_precision(rows), 4),
            "scan_wall_s": round(sum(r.wall_ms for r in rows) / 1000, 4),
            "scorecard_wall_s": round(scorecard_s, 4),
            "checker_seconds": {k: round(v, 4)
                                for k, v in checker_timings(rows).items()},
            "apps_clean": not apps.found,
            "apps_wall_s": round(apps.wall_s, 4),
        },
        "triage": triage_savings(triage_kernel, clean_cost=0,
                                 kernel_ids=triage_kernel_ids,
                                 max_runs=max_runs),
    }


def _render_triage(lines: List[str], triage: Dict[str, Any],
                   screen: str) -> None:
    lines.append(f"{screen} screen vs explore-to-exhaustion "
                 f"(max_runs={triage['max_runs']}):")
    lines.append(f"{'kernel':<45} {'explore':>8} {screen:>7} "
                 f"{'saved':>6} {'buggy':>8}")
    for kid, row in triage["kernels"].items():
        lines.append(
            f"{kid:<45} {row['explore_runs']:>8} "
            f"{'clean' if row['triage_clean'] else 'FLAG':>7} "
            f"{row['runs_saved']:>6} "
            f"{'flagged' if row['buggy_flagged'] else 'MISSED':>8}")
    lines.append(f"  total runs saved {triage['total_runs_saved']}/"
                 f"{triage['total_explore_runs']}, false skips: "
                 f"{triage['false_skips'] or 'none'}")


def render(document: Dict[str, Any]) -> str:
    """Human-readable table of a predict or static document."""
    lines = [f"detector-quality benchmarks (python {document['python']}, "
             f"{document['cpus']} cpu(s))", ""]
    if "predict" in document:
        card = document["predict"]["scorecard"]
        lines.append(
            f"predictive analysis ({card['kernels']} kernels, one "
            f"recorded run each): recall {card['recall']:.0%} / "
            f"precision {card['precision']:.0%} vs dynamic detectors, "
            f"offline analysis {card['predict_wall_s']:.2f}s total")
        _render_triage(lines, document["predict"]["triage"], "triage")
    if "static" in document:
        card = document["static"]["scorecard"]
        lines.append(
            f"static analysis ({card['kernels']} kernels, both variants, "
            f"zero executions): recall {card['recall']:.0%} / precision "
            f"{card['precision']:.0%} vs ground-truth labels, full scan "
            f"{card['scan_wall_s']:.2f}s, mini-apps "
            f"{'clean' if card['apps_clean'] else 'FLAGGED'} "
            f"({card['apps_wall_s'] * 1000:.0f}ms)")
        checker_text = " ".join(
            f"{stage}:{secs:.2f}s" for stage, secs
            in sorted(card["checker_seconds"].items()))
        lines.append(f"  per-stage wall: {checker_text}")
        if card["missed"] or card["false_positives"]:
            lines.append(f"  missed: {card['missed'] or 'none'}, "
                         f"false positives: "
                         f"{card['false_positives'] or 'none'}")
        _render_triage(lines, document["static"]["triage"], "static")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="detector-quality benchmarks: the predict or static "
                    "scorecard plus its triage savings")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--predict", action="store_true",
                       help="offline scorecard vs the dynamic detectors + "
                            "triage savings (BENCH_predict.json)")
    which.add_argument("--static", action="store_true",
                       help="scan scorecard vs ground-truth labels + triage "
                            "savings (BENCH_static.json)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON document instead of the table")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the JSON document to FILE")
    args = parser.parse_args(argv)

    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count(),
    }
    if args.predict:
        document["predict"] = run_predict_benchmarks()
    else:
        document["static"] = run_static_benchmarks()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render(document))
        if args.out:
            print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
