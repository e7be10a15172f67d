"""Collect perfbench result sets: every workload over a range of seeds.

    python3 perfbench/collect.py --out FILE [--set NAME=DIR ...]
                                 [--seeds 1-10] [--seconds S] [--layers]

A *set* is the runs of one checkout (``DIR/perfbench/run.py``); the
default is two sets, ``A`` and ``B``, of this checkout, which measures how
far two sets of the same code disagree.  To compare a parent and a change,
pass ``--set parent=DIR1 --set change=DIR2``.  For each seed every set runs
every workload; the order of the sets and of the workloads reverses from
one seed to the next, so slow spells of a shared host fall on both sides.
``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  ``--layers``
adds one traced run per workload (first set, first seed) and stores its
layer table.  Read the file with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> Dict[str, Any]:
    out = checkout / ".bench_build" / "collect-run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if not out.exists():
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no "
                         f"result (exit {proc.returncode}):\n{proc.stderr}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True)
    parser.add_argument("--set", action="append", default=[],
                        metavar="NAME=DIR")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)

    sets = dict(item.split("=", 1) for item in args.set) or {
        "A": str(HERE.parent), "B": str(HERE.parent)}
    document: Dict[str, Any] = {
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "seconds": args.seconds,
        "sets": {name: {"runs": {w: [] for w in WORKLOADS}} for name in sets},
        "layers": {},
    }

    def save() -> None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")

    for index, seed in enumerate(parse_seeds(args.seeds)):
        names = list(sets) if index % 2 == 0 else list(sets)[::-1]
        order = WORKLOADS if index % 2 == 0 else WORKLOADS[::-1]
        for name in names:
            for workload in order:
                record = run_once(Path(sets[name]), workload, seed,
                                  args.seconds, 0)
                document["sets"][name]["runs"][workload].append(record)
                print(f"{name} {workload} seed={seed}: correct="
                      f"{record['correct']} witness={record['witness']}",
                      flush=True)
                save()
    if args.layers:
        first = next(iter(sets.values()))
        for workload in WORKLOADS:
            record = run_once(Path(first), workload,
                              parse_seeds(args.seeds)[0], args.seconds, 1)
            document["layers"][workload] = record
            save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
