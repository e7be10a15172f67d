"""The four perfbench workloads, built from a workload seed.

Each workload function returns the sample's *units*: ``(name, call)`` pairs, where
``call()`` makes public calls into ``repro``, checks what they returned
and gives back ``(ok, witness)``.  A unit is what a user waits on for one
verdict, so the harness times each one from its first call to its verdict.
Programs receive only inputs generated here from the seed.

Every workload function takes the same :class:`Context`: the run probe attached to
each ``repro.run`` the unit makes, the span recorder (``None`` outside the
traced sample) and a counter of work done.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Unit = Tuple[str, Callable[[], Tuple[bool, Any]]]

#: Buggy kernel variants that none of the five detectors flags on any seed
#: of the sweep: bugs that are not data races (select ordering, timer and
#: channel misuse that never races) and the race hidden by the four-shadow-
#: word limit.  These are the paper's Table 12 misses; a miss elsewhere is
#: a wrong output.
DETECTOR_BLIND_SPOTS = frozenset({
    "nonblocking-chan-cockroach-default-busyloop",
    "nonblocking-chan-etcd-select-ticker",
    "nonblocking-chan-kubernetes-zero-value",
    "nonblocking-msglib-grpc-timer-zero",
    "nonblocking-trad-etcd-split-critical-section",
    "nonblocking-trad-grpc-shadow-eviction",
    "nonblocking-trad-kubernetes-order-violation",
    "nonblocking-wg-cockroach-add-inside",
})

#: Modules each workload imports during set-up (timed as ``setup.import_s``).
IMPORTS: Dict[str, Tuple[str, ...]] = {
    "detect-sweep": ("repro.bugs", "repro.detect", "repro.dataset.labels"),
    "explore-exhaust": ("repro.bugs", "repro.detect.systematic",
                        "repro.static", "repro.predict",
                        "repro.dataset.labels"),
    "chaos-apps": ("repro.inject.harness", "repro.inject.plans",
                   "repro.inject.scenarios", "repro.detect.convergence"),
    "net-loadgen": ("repro.net.demo",),
}


class RunProbe:
    """Observer appended to every ``repro.run`` a unit makes.

    It counts runs, scheduler steps and trace events from each finished
    result.  In the traced sample it also opens a ``run`` span when the run
    attaches its observers and closes it when they finish, which brackets
    the whole simulation.  It never subscribes to the trace, so it leaves
    the compiled fast paths exactly as engaged as they were without it.
    """

    def __init__(self, spans: Optional[Any] = None) -> None:
        self.spans = spans
        self.runs = 0
        self.steps = 0
        self.events = 0

    def attach(self, rt: Any) -> None:
        if self.spans is not None:
            self.spans.begin("run")

    def finish(self, result: Any) -> None:
        self.runs += 1
        self.steps += result.steps
        if result.trace is not None:
            self.events += len(result.trace)
        if self.spans is not None:
            self.spans.end()


class Context:
    """What the units of one sample share."""

    def __init__(self, spans: Optional[Any] = None) -> None:
        self.spans = spans
        self.probe = RunProbe(spans)
        self.counts: Counter = Counter()

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, inside a span in the traced sample."""
        if self.spans is None:
            return fn(*args, **kwargs)
        self.spans.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.end()

    def hot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, counted and timed in aggregate in the traced sample."""
        return fn if self.spans is None else self.spans.hot(name, fn)


# ----------------------------------------------------------------------
# detect-sweep
# ----------------------------------------------------------------------


def detect_sweep(seed: int, tiny: bool, ctx: Context) -> List[Unit]:
    """All kernels, buggy and fixed, over a seed range, fully traced.

    Every run carries the race, channel-rule and lock-order detectors and
    is classified by the built-in deadlock and leak detectors.  The unit is
    one kernel variant: its verdict is the set of detectors that fired on
    any seed.
    """
    from repro import run
    from repro.bugs import registry
    from repro.dataset.labels import kernel_labels
    from repro.detect import (BuiltinDeadlockDetector, ChannelRuleChecker,
                              GoroutineLeakDetector, LockOrderDetector,
                              RaceDetector)

    kernels = registry.all_kernels()
    if tiny:
        kernels = kernels[::14]
    seeds = range(1000 * seed, 1000 * seed + (2 if tiny else 40))
    builtin = ctx.hot("detect.classify", BuiltinDeadlockDetector().classify)
    leak = ctx.hot("detect.classify", GoroutineLeakDetector().classify)

    def unit(kernel: Any, variant: str) -> Callable[[], Tuple[bool, Any]]:
        program = getattr(kernel, variant)
        labels = kernel_labels(kernel)

        def call() -> Tuple[bool, Any]:
            fired: set = set()
            outcomes = []
            for s in seeds:
                race, rules, lockorder = (RaceDetector(), ChannelRuleChecker(),
                                          LockOrderDetector())
                if ctx.spans is not None:
                    race.on_event = ctx.hot("detect.on_event", race.on_event)
                    lockorder.on_event = ctx.hot("detect.on_event",
                                                 lockorder.on_event)
                result = run(program, seed=s,
                             observers=[race, rules, lockorder, ctx.probe],
                             **kernel.run_kwargs)
                hits = [name for name, hit in (
                    ("race", race.detected), ("rules", rules.detected),
                    ("lockorder", lockorder.detected),
                    ("builtin", builtin(result)), ("leak", leak(result)))
                    if hit]
                fired.update(hits)
                outcomes.append((result.status, result.steps, hits))
            if variant == "buggy":
                ok = bool(fired) or kernel.meta.kernel_id in DETECTOR_BLIND_SPOTS
                ctx.counts["missed"] += not fired
            else:
                allowed = set() if labels.fixed_expected_clean else {"race"}
                ok = fired <= allowed
            return ok, [sorted(fired), outcomes]

        return call

    return [(f"{k.meta.kernel_id}[{variant}]", unit(k, variant))
            for k in kernels for variant in ("buggy", "fixed")]


# ----------------------------------------------------------------------
# explore-exhaust
# ----------------------------------------------------------------------


def explore_exhaust(seed: int, tiny: bool, ctx: Context) -> List[Unit]:
    """Systematic exploration with the library defaults (prune, memo).

    Per kernel, two units: the buggy variant explored until its symptom
    shows, and the fixed variant screened by both triage tiers and then
    explored to exhaustion or the cap.  Exploration does not depend on a
    seed; the seed only seeds predict's recorded run.
    """
    from repro.bugs import registry
    from repro.dataset.labels import kernel_labels
    from repro.detect.systematic import explore_systematic
    from repro.predict import triage_kernel as predict_triage
    from repro.static import triage_kernel as static_triage

    kernels = registry.all_kernels()
    if tiny:
        kernels = kernels[::27]

    def explore(kernel: Any, program: Callable[..., Any]) -> Any:
        found = ctx.call("detect.systematic", explore_systematic, program,
                         stop_on=kernel.manifested, max_runs=60,
                         observers=[ctx.probe], **kernel.run_kwargs)
        ctx.counts["explore_runs"] += found.runs
        ctx.counts["explore_pruned"] += found.pruned
        ctx.counts["explore_runs_saved"] += found.runs_saved
        ctx.counts["explore_exhausted"] += found.exhausted
        return found

    def record(found: Any) -> List[Any]:
        return [found.found, found.runs, found.exhausted, found.pruned,
                found.runs_saved, found.counterexample,
                sorted(found.statuses.items())]

    def buggy(kernel: Any) -> Callable[[], Tuple[bool, Any]]:
        def call() -> Tuple[bool, Any]:
            found = explore(kernel, kernel.buggy)
            ctx.counts["missed"] += not found.found
            # A latent race may never show a wrong value on any schedule.
            return found.found or kernel.meta.latent, record(found)
        return call

    def fixed(kernel: Any) -> Callable[[], Tuple[bool, Any]]:
        labels = kernel_labels(kernel)

        def call() -> Tuple[bool, Any]:
            static = ctx.call("static.triage", static_triage, kernel,
                              fixed=True)
            predicted = ctx.call("predict.triage", predict_triage, kernel,
                                 fixed=True, seed=seed)
            found = explore(kernel, kernel.fixed)
            ok = (not found.found
                  and static.needs_search == (not labels.fixed_expected_clean))
            return ok, [static.families, predicted.families, record(found)]
        return call

    units: List[Unit] = []
    for kernel in kernels:
        units.append((f"{kernel.meta.kernel_id}[buggy]", buggy(kernel)))
        units.append((f"{kernel.meta.kernel_id}[fixed]", fixed(kernel)))
    return units


# ----------------------------------------------------------------------
# chaos-apps
# ----------------------------------------------------------------------


def chaos_apps(seed: int, tiny: bool, ctx: Context) -> List[Unit]:
    """The chaos harness over the six mini-apps and two recovery clusters.

    Apps run bare and under each plan of the default suite; the recovery
    clusters run under a single crash-restart and a crash storm.  A unit is
    one (target, plan, seed) cell run through ``ChaosHarness.run_cell``
    with its default memo; it must end clean (recovered, for clusters).
    """
    from repro.inject import plans
    from repro.inject.harness import ChaosHarness, ChaosTarget
    from repro.inject.scenarios import all_scenarios, recovery_scenarios

    def targets(scenarios: List[Any]) -> List[Any]:
        return [ChaosTarget.from_program(name, program, observers=(ctx.probe,),
                                         **kwargs)
                for name, program, kwargs in scenarios]

    apps = targets(all_scenarios())
    recovery = targets(recovery_scenarios())
    suite = [None] + list(plans.default_suite())
    crashes = [plans.crash_restart(), plans.crash_storm()]
    if tiny:
        apps, suite = apps[:2], suite[:2]
        recovery, crashes = recovery[:1], crashes[:1]
    cells = ([(t, p) for t in apps for p in suite]
             + [(t, p) for t in recovery for p in crashes])
    seeds = range(1000 * seed, 1000 * seed + (1 if tiny else 15))

    def unit(target: Any, plan: Any, s: int) -> Callable[[], Tuple[bool, Any]]:
        harness = ChaosHarness(seeds=(s,))

        def call() -> Tuple[bool, Any]:
            cell = ctx.call("inject.run_cell", harness.run_cell, target, plan)
            ctx.counts["faults_fired"] += cell.faults_fired
            return cell.clean, [sorted(cell.statuses.items()),
                                cell.faults_fired, cell.steps,
                                sorted(cell.verdicts.items())]
        return call

    return [(f"{t.name}/{p.name if p else 'baseline'}/{s}", unit(t, p, s))
            for t, p in cells for s in seeds]


# ----------------------------------------------------------------------
# net-loadgen
# ----------------------------------------------------------------------


def net_loadgen(seed: int, tiny: bool, ctx: Context) -> List[Unit]:
    """Untraced echo load: 100 loadgen runs of 8 clients x 125 requests.

    Each unit is one ``loadgen_summary`` run, a closed loop of 8 clients
    with Poisson think time, and must deliver every request without error
    or leak.
    """
    from repro.net.demo import loadgen_summary

    clients, requests = (8, 10) if tiny else (8, 125)
    runs = 2 if tiny else 100

    def unit(s: int) -> Callable[[], Tuple[bool, Any]]:
        def call() -> Tuple[bool, Any]:
            # One loadgen_summary is exactly one simulation run.
            summary = ctx.call("run", loadgen_summary, seed=s,
                               clients=clients, requests=requests)
            net = summary["net"]
            total = clients * requests
            ctx.counts["runs"] += 1
            ctx.counts["steps"] += summary["steps"]
            ctx.counts["requests"] += summary["requests"]
            for key in ("sent", "delivered", "dropped"):
                ctx.counts[f"net_{key}"] += net[key]
            ok = (summary["status"] == "ok" and summary["errors"] == 0
                  and summary["ok"] == total and summary["leaked"] == 0
                  and net["delivered"] == net["sent"]
                  and summary["latency"]["count"] == total)
            return ok, summary
        return call

    return [(f"loadgen/{1000 * seed + i}", unit(1000 * seed + i))
            for i in range(runs)]


WORKLOADS: Dict[str, Callable[[int, bool, Context], List[Unit]]] = {
    "detect-sweep": detect_sweep,
    "explore-exhaust": explore_exhaust,
    "chaos-apps": chaos_apps,
    "net-loadgen": net_loadgen,
}
