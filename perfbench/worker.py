"""One perfbench sample in a fresh process: set up, run every unit, report.

``run.py`` starts this script once per sample with ``PYTHONPATH`` pointing
at the checkout's ``src``; it prints one JSON record as its last line::

    python perfbench/worker.py --workload NAME --seed N [--tiny] [--trace]
    python perfbench/worker.py --build

``--build`` only loads the compiled extensions (building them into the
cache on first use) and reports what engaged.  ``--trace`` adds the
per-layer recorders of :mod:`tracing`; nothing else about the sample
changes, so its witness must equal the untraced samples'.
"""

import time

MAIN_AT = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

import workloads  # noqa: E402


class ExtLoadClock(importlib.abc.MetaPathFinder):
    """Times ``repro.runtime._ext.load_ext``, which ``import repro`` calls
    to build or load the compiled extensions, so set-up can report loading
    the ``.so`` apart from importing Python modules."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def find_spec(self, name: str, path: Any, target: Any = None) -> Any:
        if name != "repro.runtime._ext":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed_exec(module: Any) -> None:
            exec_module(module)
            load_ext = module.load_ext

            def timed_load_ext(ext_name: str) -> Any:
                t0 = perf_counter()
                try:
                    return load_ext(ext_name)
                finally:
                    self.seconds += perf_counter() - t0

            module.load_ext = timed_load_ext

        spec.loader.exec_module = timed_exec  # type: ignore[method-assign]
        return spec


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


def _reference_work() -> int:
    table: Dict[int, _Cell] = {}
    cells = [_Cell(i, 3 * i) for i in range(256)]
    acc = 0
    for i in range(60_000):
        cell = cells[i & 255]
        acc = cell.step(acc ^ i)
        table[acc & 4095] = cell
        if i & 15 == 0:
            cells[i & 255] = _Cell(acc, i)
    return acc


def reference_seconds() -> float:
    """One timing of a fixed slice of interpreter work (method calls,
    attribute reads, dict stores, small allocations) with the collector
    off: how fast the host runs Python right now.  It runs no ``repro``
    code, so no change to the program can move it."""
    gc.disable()
    try:
        start = perf_counter()
        _reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


#: Seconds of units between two timings of the reference kernel.
REFERENCE_EVERY_S = 0.5


def runtime_state() -> Dict[str, Any]:
    """Backend, compiled paths and process-wide counters of this sample."""
    from repro.parallel import memo
    from repro.runtime import _hotloop
    from repro.runtime.scheduler import backend_fallbacks, resolve_backend

    fast = _hotloop.get_fastops()
    return {
        "backend": resolve_backend("coroutine"),
        "compiled": _hotloop.get_drive() is not None,
        "fallbacks": backend_fallbacks(),
        "fastops": fast.fastops_stats() if fast is not None else {},
        "memo": memo.memo.stats(),
    }


def build() -> Dict[str, Any]:
    import repro  # noqa: F401  (loads or builds the extensions)

    state = runtime_state()
    return {"backend": state["backend"], "compiled": state["compiled"]}


def sample(workload: str, seed: int, tiny: bool, traced: bool,
           spans_path: str) -> Dict[str, Any]:
    ext_clock = ExtLoadClock()
    sys.meta_path.insert(0, ext_clock)
    t0 = perf_counter()
    import repro  # noqa: F401
    from repro.runtime import _hotloop

    _hotloop.get_fastops()  # binds the fast ops, loads the tasklet vehicle
    sys.meta_path.remove(ext_clock)
    for module in workloads.IMPORTS[workload]:
        importlib.import_module(module)
    t1 = perf_counter()

    tracing = None
    if traced:
        import repro.parallel
        from tracing import Tracing

        tracing = Tracing()
    ctx = workloads.Context(tracing.spans if tracing else None)
    units = workloads.WORKLOADS[workload](seed, tiny, ctx)
    t2 = perf_counter()
    if tracing is not None:
        # Explore reads this name at call time, so the rebinding is seen.
        repro.parallel.summarize_result = ctx.hot(
            "parallel.summarize_result", repro.parallel.summarize_result)
        tracing.start()

    first_call_at = time.monotonic()
    reference: List[float] = []
    since_reference = 0.0
    times: List[float] = []
    failures: List[str] = []
    witness = hashlib.sha256()
    for name, call in units:
        if since_reference >= REFERENCE_EVERY_S:
            reference.append(reference_seconds())
            since_reference = 0.0
        if tracing is not None:
            tracing.begin_unit(name)
        start = perf_counter()
        ok, output = call()
        times.append(perf_counter() - start)
        since_reference += times[-1]
        if tracing is not None:
            tracing.end_unit()
        if not ok:
            failures.append(name)
        witness.update(json.dumps([name, ok, output], sort_keys=True,
                                  default=repr).encode())
    timed_s = sum(times)

    counts = dict(ctx.counts)
    counts["runs"] = ctx.probe.runs + counts.get("runs", 0)
    counts["steps"] = ctx.probe.steps + counts.get("steps", 0)
    counts["trace_events"] = ctx.probe.events
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "main_at": MAIN_AT,
        "first_call_at": first_call_at,
        "setup": {"ext_load_s": ext_clock.seconds,
                  "import_s": t1 - t0 - ext_clock.seconds,
                  "inputs_s": t2 - t1},
        "wall_s": timed_s,
        "unit_s": times,
        "units": len(units),
        "failures": failures,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "witness": witness.hexdigest(),
    }
    record.update(runtime_state())
    if tracing is not None:
        tracing.stop()
        record["layers"] = tracing.report(timed_s)
        if spans_path:
            tracing.dump(spans_path)
    reference.append(reference_seconds())
    record["reference_s"] = statistics.median(reference)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="", metavar="PATH")
    parser.add_argument("--build", action="store_true")
    args = parser.parse_args()
    if args.build:
        record = build()
    elif args.workload:
        record = sample(args.workload, args.seed, args.tiny, args.trace,
                        args.spans)
    else:
        parser.error("--workload or --build is required")
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
