"""perfbench: how fast the simulator turns programs into detector verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE] [--tiny]

Runs one workload as a series of fresh-process samples (``worker.py``), each
doing the same seed-derived work on one OS thread with ``jobs=1``, until the
samples have measured ``--seconds`` of work (at least two samples).  Every
unit's output is checked and every sample's output witness must be equal.

``--trace 0`` prints the end-to-end metrics, each a median over the
samples, with host times scaled to a reference host speed (``REFERENCE_S``).
``--trace 1`` runs one more sample with the per-layer recorders on and
prints the per-layer metrics; its witness must equal the others'.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--out`` also writes the whole run (every raw sample) as JSON, the input
of ``compare.py``; ``--tiny`` shrinks every workload for the smoke test.
The compiled extensions are built once, into ``.bench_build/`` of the
checkout, before the first sample.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
MIN_SAMPLES = 2
#: Seconds a run may take after the build, leaving room under the 180 s
#: limit for the traced sample's slack and process teardown.
RUN_BUDGET_S = 150.0
BUILD_TIMEOUT_S = 900.0
#: Seconds ``worker.reference_seconds`` takes on the bench host (Intel Xeon,
#: 2 vCPUs shared with other tenants) when the host is quiet.  Every host
#: time a sample reports is scaled by REFERENCE_S / the sample's median
#: reference time, so the numbers read as seconds at that speed and a slow
#: spell of the host cancels out; raw times are scaled ones / host_factor.
REFERENCE_S = 0.0145

Metrics = Dict[str, Tuple[float, str]]


class SampleError(RuntimeError):
    """A worker process failed or printed no record."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["REPRO_EXT_CACHE"] = str(BUILD / "repro-ext")
    return env


def spawn(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``worker.py args`` to completion; its record plus ``spawn_at``."""
    spawn_at = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"worker {args} timed out after {exc.timeout:.0f}s")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        raise SampleError(f"worker {args} exited {proc.returncode}:\n{tail}")
    record = json.loads(lines[-1])
    record["spawn_at"] = spawn_at
    return record


def sample(args: List[str], timeout: float) -> Dict[str, Any]:
    """One sample, its host times scaled to the reference host speed."""
    record = spawn(args, timeout)
    factor = record["host_factor"] = REFERENCE_S / record["reference_s"]
    record["setup_s"] = factor * (record.pop("first_call_at")
                                  - record["spawn_at"])
    record["interpreter_s"] = factor * (record.pop("main_at")
                                        - record.pop("spawn_at"))
    record["setup"] = {k: factor * v for k, v in record["setup"].items()}
    record["wall_s"] *= factor
    record["unit_s"] = [factor * t for t in record["unit_s"]]
    layers = record.get("layers")
    if layers:
        layers["timed_s"] *= factor
        layers["gc_busy_s"] *= factor
        layers["self_s"] = {k: factor * v for k, v in layers["self_s"].items()}
        for row in layers["spans"].values():
            row["busy_s"] *= factor
            row["self_s"] *= factor
    return record


def median(values: List[float]) -> float:
    return statistics.median(values)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: p90 of 100 values has 10 values above it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(q * len(ordered), 6))) - 1]


def end_to_end(samples: List[Dict[str, Any]]) -> Metrics:
    """Metrics over the untraced samples.

    Every sample repeats the same units, so each unit's time is taken as
    its median over the samples; the work's wall time is the sum of those
    and the verdict percentiles are over them.  A burst of load from a
    neighbour on the host then has to hit the same unit in half of the
    samples to move a number.
    """
    unit_s = [median(list(times)) for times in zip(*(s["unit_s"]
                                                      for s in samples))]
    wall = sum(unit_s)
    return {
        "setup_s": (median([s["setup_s"] for s in samples]), "s"),
        "wall_s": (wall, "s"),
        "steps_per_s": (median([s["counts"]["steps"] for s in samples]) / wall,
                        "1/s"),
        "verdict_p50_ms": (1e3 * percentile(unit_s, 0.5), "ms"),
        "verdict_p90_ms": (1e3 * percentile(unit_s, 0.9), "ms"),
        "peak_rss_mb": (median([s["peak_rss_mb"] for s in samples]), "MB"),
    }


def per_layer(samples: List[Dict[str, Any]], traced: Dict[str, Any]) -> Metrics:
    """Layer metrics from the traced sample; set-up phases are medians over
    every sample and rates use the untraced median wall time."""
    layers = traced["layers"]
    timed = layers["timed_s"]
    own = layers["self_s"]
    spans = layers["spans"]
    counts = traced["counts"]
    wall = end_to_end(samples)["wall_s"][0]
    everyone = samples + [traced]

    def pct(seconds: float) -> float:
        return 100.0 * seconds / timed if timed else 0.0

    def span(name: str, key: str = "busy_s") -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runtime_s = sum(v for k, v in own.items() if k.startswith("runtime."))
    out: Metrics = {
        "setup.interpreter_s": (median([s["interpreter_s"] for s in everyone]),
                                "s"),
        "setup.ext_load_s": (median([s["setup"]["ext_load_s"]
                                     for s in everyone]), "s"),
        "setup.import_s": (median([s["setup"]["import_s"] for s in everyone]),
                           "s"),
        "setup.inputs_s": (median([s["setup"]["inputs_s"] for s in everyone]),
                           "s"),
        "trace.overhead_pct": (100.0 * (traced["wall_s"] / wall - 1), "%"),
        "sampler.coverage_pct": (100.0 * layers["coverage"], "%"),
        "runtime.self_pct": (pct(runtime_s), "%"),
        "runtime.steps": (counts["steps"], "count"),
        "runtime.ns_per_step": (1e9 * ratio(runtime_s, counts["steps"]), "ns"),
        "runtime.run.calls": (span("run", "calls"), "count"),
        "runtime.run.busy_pct": (pct(span("run")), "%"),
        "runtime.runs_per_s": (ratio(counts["runs"], wall), "1/s"),
        "runtime.trace.events": (counts["trace_events"], "count"),
        "gc.busy_pct": (pct(layers["gc_busy_s"]), "%"),
        "gc.collections": (layers["gc_collections"], "count"),
    }
    for layer in ("runtime.scheduler", "runtime.goroutine", "runtime.clock",
                  "runtime.trace", "runtime.other", "chan", "sync", "stdlib",
                  "net", "detect", "parallel", "static", "predict", "inject",
                  "observe", "user", "gc", "harness", "other"):
        out[f"{layer}.self_pct"] = (pct(own.get(layer, 0.0)), "%")

    fast = traced["fastops"] or {"engaged": {}, "bailed": {}}
    for op, layer in (("send", "chan"), ("recv", "chan"), ("try_send", "chan"),
                      ("try_recv", "chan"), ("select", "chan"),
                      ("mutex", "sync"), ("rwmutex", "sync")):
        for outcome in ("engaged", "bailed"):
            out[f"{layer}.fastops.{op}.{outcome}"] = (
                fast[outcome].get(op, 0), "count")
    engaged = sum(fast["engaged"].values())
    out["fastops.engage_ratio"] = (
        ratio(engaged, engaged + sum(fast["bailed"].values())), "ratio")

    sent = counts.get("net_sent", 0)
    out.update({
        "net.delivered": (counts.get("net_delivered", 0), "count"),
        "net.dropped": (counts.get("net_dropped", 0), "count"),
        "net.us_per_message": (1e6 * ratio(own.get("net", 0.0), sent), "us"),
        "net.requests_per_s": (ratio(counts.get("requests", 0), wall), "1/s"),
        "detect.missed": (counts.get("missed", 0), "count"),
        "detect.on_event.calls": (span("detect.on_event", "calls"), "count"),
        "detect.on_event.busy_pct": (pct(span("detect.on_event")), "%"),
        "detect.systematic.busy_pct": (pct(span("detect.systematic")), "%"),
        "detect.systematic.runs": (counts.get("explore_runs", 0), "count"),
        "detect.systematic.runs_per_s": (ratio(
            counts.get("explore_runs", 0) - counts.get("explore_runs_saved", 0),
            span("detect.systematic")), "1/s"),
        "detect.systematic.pruned": (counts.get("explore_pruned", 0), "count"),
        "detect.systematic.runs_saved": (counts.get("explore_runs_saved", 0),
                                         "count"),
        "detect.systematic.exhausted": (counts.get("explore_exhausted", 0),
                                        "count"),
        "static.triage.busy_pct": (pct(span("static.triage")), "%"),
        "predict.triage.busy_pct": (pct(span("predict.triage")), "%"),
        "inject.run_cell.busy_pct": (pct(span("inject.run_cell")), "%"),
        "inject.faults_fired": (counts.get("faults_fired", 0), "count"),
    })
    memo = traced["memo"]
    out.update({
        "parallel.memo.hits": (memo["hits"], "count"),
        "parallel.memo.misses": (memo["misses"], "count"),
        "parallel.memo.entries": (memo["entries"], "count"),
        "parallel.memo.hit_ratio": (ratio(memo["hits"],
                                          memo["hits"] + memo["misses"]),
                                    "ratio"),
    })
    return out


def check(samples: List[Dict[str, Any]]) -> List[str]:
    """Every unit passed and every sample produced the same witness."""
    problems = []
    for s in samples:
        kind = "traced sample" if s["traced"] else "sample"
        if s["failures"]:
            problems.append(f"{kind}: {len(s['failures'])} unit(s) wrong, "
                            f"first {s['failures'][:3]}")
    witnesses = {s["witness"] for s in samples}
    if len(witnesses) > 1:
        problems.append(f"witnesses differ across samples: {sorted(witnesses)}")
    return problems


def compact(sample: Dict[str, Any]) -> Dict[str, Any]:
    """A sample as stored in ``--out``: all but unit times and layers."""
    keep = {k: v for k, v in sample.items()
            if k not in ("workload", "seed", "traced", "units", "layers")}
    unit_s = keep.pop("unit_s")
    keep["verdict_p50_ms"] = 1e3 * percentile(unit_s, 0.5)
    keep["verdict_p90_ms"] = 1e3 * percentile(unit_s, 0.9)
    return keep


def render(args: argparse.Namespace, samples: List[Dict[str, Any]],
           traced: Dict[str, Any], metrics: Metrics) -> List[str]:
    first = samples[0]
    lines = [
        f"perfbench {args.workload} seed={args.seed}: {len(samples)} samples"
        f"{' + 1 traced' if traced else ''} of {first['units']} units, "
        f"backend={first['backend']} compiled={first['compiled']}, "
        f"witness {first['witness'][:16]}",
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6g} {unit}")
    if traced:
        layers = traced["layers"]
        lines.append(f"  where the traced sample's {layers['timed_s']:.3f}s "
                     f"went ({layers['samples']} samples):")
        for layer, seconds in sorted(layers["self_s"].items(),
                                     key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<20} {seconds:9.4f}s "
                         f"{100 * seconds / layers['timed_s']:6.2f}%")
        lines.append("  spans (calls, busy s, self s):")
        for name, row in sorted(layers["spans"].items()):
            lines.append(f"    {name:<28} {row['calls']:>9} "
                         f"{row['busy_s']:9.4f} {row['self_s']:9.4f}")
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    samples: List[Dict[str, Any]] = []
    traced: Dict[str, Any] = {}
    build: Dict[str, Any] = {}
    problems: List[str] = []
    try:
        build = spawn(["--build"], BUILD_TIMEOUT_S)
        deadline = time.monotonic() + RUN_BUDGET_S
        measured = longest = 0.0
        while len(samples) < MIN_SAMPLES or measured < args.seconds:
            if samples and time.monotonic() + 2.5 * longest > deadline:
                break
            started = time.monotonic()
            samples.append(sample(common, deadline - started))
            measured += samples[-1]["wall_s"] / samples[-1]["host_factor"]
            longest = max(longest, time.monotonic() - started)
        if args.trace:
            spans = BUILD / "perfbench" / (f"spans-{args.workload}"
                                           f"-seed{args.seed}.json")
            traced = sample(common + ["--trace", "--spans", str(spans)],
                            deadline + 25 - time.monotonic())
    except SampleError as exc:
        problems.append(str(exc))
    if len(samples) < MIN_SAMPLES and not problems:
        problems.append(f"only {len(samples)} sample(s) fit the time budget")

    everyone = samples + ([traced] if traced else [])
    problems += check(everyone)
    metrics: Metrics = {}
    if len(samples) >= MIN_SAMPLES and (traced or not args.trace):
        metrics = end_to_end(samples)
        if traced:
            layer_metrics = per_layer(samples, traced)
            print("\n".join(render(args, samples, traced,
                                   {**metrics, **layer_metrics})))
            metrics = layer_metrics
        else:
            print("\n".join(render(args, samples, {}, metrics)))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    correct = not problems
    attempted = sum(s["units"] for s in everyone)
    failed = sum(len(s["failures"]) for s in everyone)
    if not correct:
        # A crashed sample or a witness mismatch fails the run even when
        # every unit that reported passed its own check.
        attempted, failed = max(attempted, 1), max(failed, 1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "tiny": args.tiny,
                "build": build,
                "correct": correct, "problems": problems,
                "attempted": attempted, "failed": failed,
                "witness": everyone[0]["witness"] if everyone else None,
                "end_to_end": ({k: {"value": v, "unit": u} for k, (v, u)
                                in end_to_end(samples).items()}
                               if len(samples) >= MIN_SAMPLES else {}),
                "per_layer": ({k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}
                              if traced else None),
                "layers": traced.get("layers"),
                "samples": [compact(s) for s in samples],
                "traced_sample": compact(traced) if traced else None,
            }, handle, separators=(",", ":"))
            handle.write("\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
