"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``                — regenerate the paper's tables and figures.
* ``kernels``               — list the executable bug corpus.
* ``run-kernel <id>``       — run one kernel (buggy or fixed) and classify.
* ``detect <id>``           — run every detector against one kernel.
* ``scan <paths...>``       — static loop-capture scan over Python sources.
* ``bench``                 — simulator performance benchmarks: single-run
  fast path and parallel sweep scaling (``--out BENCH_simulator.json``).
* ``chaos``                 — fault-injection sweeps and the resilience
  scorecard (``repro chaos --apps``, ``repro chaos --kernel <id>``,
  ``repro chaos --net-apps --plan partition``).
* ``net-demo``              — run the 3-node minietcd cluster on the
  simulated network and report health, fabric stats and the determinism
  witnesses (schedule + message-log digests).
* ``loadgen``               — virtual-time load generator against the echo
  service (``--clients``, ``--requests``, ``--rate``, ``--seeds``).
* ``profile <target>``      — pprof-style goroutine/block/mutex profiles
  and metrics for one observed run (``--flame`` for the flamegraph).
* ``trace-export <target>`` — Chrome ``trace_event`` JSON for one run
  (load in ``about:tracing`` / Perfetto); ``--sync`` writes the
  sync-event stream ``repro predict`` consumes instead.
* ``timeline <target>``     — the per-goroutine ASCII lane diagram.
* ``predict <target>``      — offline predictive analysis: record one
  run (or read a ``--sync`` export) and report races, lock cycles and
  communication deadlocks reachable in schedules never executed
  (``--confirm`` searches for a replayable witness, ``--triage``
  prints only the needs-schedule-search verdict).

Targets for the three observability commands are kernel ids (optionally
``--fixed``) or mini-app scenario names (``app:minietcd`` or bare).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .bugs import registry
from .detect import (
    BuiltinDeadlockDetector,
    ChannelRuleChecker,
    GoroutineLeakDetector,
    LockOrderDetector,
    RaceDetector,
    scan_paths,
)
from .runtime.runtime import run


def _cmd_report(args: argparse.Namespace) -> int:
    from .study.report import full_report

    print(full_report())
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    kernels = registry.all_kernels()
    if args.blocking:
        kernels = [k for k in kernels if k.meta.behavior.value == "blocking"]
    if args.nonblocking:
        kernels = [k for k in kernels if k.meta.behavior.value == "non-blocking"]
    if args.json:
        print(json.dumps([{
            "kernel_id": k.meta.kernel_id,
            "title": k.meta.title,
            "app": k.meta.app.value,
            "behavior": k.meta.behavior.value,
            "subcause": str(k.meta.subcause),
            "fix_strategy": str(k.meta.fix_strategy),
            "symptom": k.meta.symptom,
            "figure": k.meta.figure,
            "bug_url": k.meta.bug_url,
            "deterministic": k.meta.deterministic,
            "latent": k.meta.latent,
        } for k in kernels], indent=2))
        return 0
    for kernel in kernels:
        meta = kernel.meta
        figure = f" [figure {meta.figure}]" if meta.figure else ""
        print(f"{meta.kernel_id:<52} {meta.app.value:<12} "
              f"{str(meta.subcause):<22} {str(meta.fix_strategy):<9}{figure}")
    print(f"\n{len(kernels)} kernels")
    return 0


def _describe(result) -> str:
    bits = [f"status={result.status}", f"steps={result.steps}",
            f"virtual-time={result.end_time:g}s"]
    if result.leaked:
        bits.append("leaked=" + ", ".join(g.describe() for g in result.leaked))
    if result.panic_value is not None:
        bits.append(f"panic={result.panic_value}")
    return "\n  ".join(bits)


def _cmd_run_kernel(args: argparse.Namespace) -> int:
    kernel = registry.get(args.kernel_id)
    program = kernel.run_fixed if args.fixed else kernel.run_buggy
    variant = "fixed" if args.fixed else "buggy"
    if args.sweep:
        if args.jobs > 1:
            from .parallel import sweep_seeds

            variant_fn = kernel.fixed if args.fixed else kernel.buggy
            summaries = sweep_seeds(variant_fn, range(args.sweep),
                                    jobs=args.jobs,
                                    predicate=kernel.manifested,
                                    **dict(kernel.run_kwargs))
            hits = [s.seed for s in summaries if s.manifested]
        else:
            hits = [seed for seed in range(args.sweep)
                    if kernel.manifested(program(seed=seed))]
        if args.json:
            print(json.dumps({
                "kernel": args.kernel_id,
                "variant": variant,
                "sweep": args.sweep,
                "manifested_seeds": hits,
                "manifestation_rate": len(hits) / args.sweep,
            }, indent=2))
            return 0
        print(f"{args.kernel_id} ({variant}): manifested on "
              f"{len(hits)}/{args.sweep} seeds")
        return 0
    result = program(seed=args.seed)
    if args.json:
        payload = result.to_dict()
        payload["kernel"] = args.kernel_id
        payload["variant"] = variant
        payload["manifested"] = kernel.manifested(result)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{args.kernel_id} seed={args.seed}")
    print(f"  {_describe(result)}")
    print(f"  manifested={kernel.manifested(result)}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    kernel = registry.get(args.kernel_id)
    seeds = ([args.seed] if args.seed is not None
             else (kernel.manifestation_seeds(range(40), jobs=args.jobs)
                   or [0])[:1])
    seed = seeds[0]

    race = RaceDetector()
    rules = ChannelRuleChecker()
    lockorder = LockOrderDetector()
    kwargs = dict(kernel.run_kwargs)
    result = run(kernel.buggy, seed=seed,
                 observers=[race, rules, lockorder], **kwargs)

    if args.json:
        print(json.dumps({
            "kernel": args.kernel_id,
            "variant": "buggy",
            "seed": seed,
            "result": result.to_dict(),
            "detectors": {
                "builtin_deadlock": bool(
                    BuiltinDeadlockDetector().classify(result)),
                "goroutine_leak": bool(
                    GoroutineLeakDetector().classify(result)),
                "race": {
                    "hit": bool(race.detected),
                    "reports": [str(r) for r in race.reports],
                },
                "channel_rules": {
                    "hit": bool(rules.detected),
                    "violations": [str(v) for v in rules.violations],
                },
                "lock_order": {
                    "hit": bool(lockorder.detected),
                    "violations": [str(v) for v in lockorder.violations],
                },
            },
        }, indent=2))
        return 0

    print(f"{args.kernel_id} (buggy, seed={seed}): {_describe(result)}")
    print(f"  built-in deadlock detector: "
          f"{'HIT' if BuiltinDeadlockDetector().classify(result) else 'miss'}")
    print(f"  goroutine-leak detector:    "
          f"{'HIT' if GoroutineLeakDetector().classify(result) else 'miss'}")
    print(f"  race detector:              "
          f"{'HIT' if race.detected else 'miss'}")
    for report in race.reports:
        print(f"    {report}")
    print(f"  channel-rule checker:       "
          f"{'HIT' if rules.detected else 'miss'}")
    for violation in rules.violations:
        print(f"    {violation}")
    print(f"  lock-order detector:        "
          f"{'HIT' if lockorder.detected else 'miss'}")
    for violation in lockorder.violations:
        print(f"    {violation}")
    return 0


def _cmd_usage(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .study.usage_static import COLUMNS, analyze_package

    for target in args.paths:
        usage = analyze_package(Path(target))
        props = usage.proportions()
        print(f"{usage.name}: {usage.loc} LoC across {usage.files} files")
        print(f"  goroutine creation sites: {usage.creation_sites} "
              f"({usage.anonymous_sites} anonymous / {usage.named_sites} named, "
              f"{usage.sites_per_kloc:.2f}/KLOC)")
        print(f"  primitive usages: {usage.total_primitives} "
              f"({usage.primitives_per_kloc:.1f}/KLOC)")
        for column in COLUMNS:
            if props[column]:
                print(f"    {column:<10} {props[column]:5.1f}%")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .study.export import export_all

    paths = export_all(args.directory)
    for path in paths:
        print(path)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .detect.systematic import explore_systematic

    kernel = registry.get(args.kernel_id)
    program = kernel.fixed if args.fixed else kernel.buggy
    kwargs = dict(kernel.run_kwargs)
    exploration = explore_systematic(
        program, stop_on=kernel.manifested, max_runs=args.max_runs,
        jobs=args.jobs, prune=not args.no_prune, **kwargs
    )
    variant = "fixed" if args.fixed else "buggy"
    if args.json:
        payload = {
            "kernel": args.kernel_id,
            "variant": variant,
            "runs": exploration.runs,
            "exhausted": exploration.exhausted,
            "found": exploration.found,
            "counterexample": exploration.counterexample,
            "counterexample_status": (
                exploration.counterexample_result.status
                if exploration.counterexample_result is not None else None),
            "statuses": dict(exploration.statuses),
        }
        if args.stats:
            payload["stats"] = exploration.to_stats()
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{args.kernel_id} ({variant}): {exploration}")
    if exploration.found:
        print("  replay with: ScriptedChoices("
              f"{exploration.counterexample})")
    if args.stats:
        stats = exploration.to_stats()
        print(f"  runs:       {stats['runs']} executed")
        print(f"  pruned:     {stats['pruned']} sibling branches")
        print(f"  diverged:   {stats['divergences']} replays")
        print(f"  tree depth: {stats['max_depth']} decisions")
        print(f"  wall time:  {stats['wall_s']:.3f}s")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .inject import (
        ChaosHarness, app_targets, kernel_targets, net_app_targets, plans,
        recovery_targets,
    )
    from .inject.plan import FaultPlan

    if args.list_plans:
        for name in sorted(plans.REGISTRY):
            plan = plans.get(name)
            print(f"{name:<16} {plan.note or ''}")
        return 0

    suite = None
    if args.plan or args.plan_file:
        suite = []
        for name in args.plan or []:
            try:
                suite.append(plans.get(name))
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
        for path in args.plan_file or []:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    suite.append(FaultPlan.from_json(handle.read()))
            except (OSError, ValueError) as exc:
                print(f"error: cannot load plan file {path}: {exc}",
                      file=sys.stderr)
                return 2

    targets = []
    if args.apps:
        targets.extend(app_targets())
    if args.net_apps:
        targets.extend(net_app_targets())
        if suite is None and not args.apps and not args.kernel:
            # The perturbation suite exercises scheduling, not the fabric;
            # cluster apps default to the canonical network fault.  The
            # glob isolates each app's secondary node (etcd's n2, grpc's
            # srv2): replication stalls and retries, clients stay served.
            suite = [plans.partition(target="*2")]
    if args.recovery:
        targets.extend(recovery_targets())
        if suite is None and not args.apps and not args.net_apps \
                and not args.kernel:
            # Crash plans for the supervised clusters: one crash with a
            # delayed restart, plus recurring crash/restart pressure.  The
            # scorecard grows Recovered/Diverged/Stuck columns from these
            # targets' convergence verdicts.
            suite = [plans.crash_restart(delay=0.3), plans.crash_storm()]
    if args.kernel:
        variant = "fixed" if args.fixed else "buggy"
        targets.extend(kernel_targets(args.kernel, variant=variant))
    if not targets:
        print("error: nothing to run; pass --apps, --net-apps, --recovery "
              "and/or --kernel ID", file=sys.stderr)
        return 2

    harness = ChaosHarness(seeds=range(args.seeds), observe=args.observe,
                           jobs=args.jobs)
    cells = harness.sweep(targets, plans=suite,
                          include_baseline=not args.no_baseline)
    if args.json:
        print(json.dumps(harness.to_dict(cells), indent=2))
    else:
        print(harness.scorecard(cells))
    return 0 if all(cell.clean for cell in cells) else 1


def _cmd_net_demo(args: argparse.Namespace) -> int:
    from functools import partial

    from .inject import plans
    from .net.demo import demo_summary
    from .parallel import map_units

    plan = None
    if args.plan:
        try:
            plan = plans.get(args.plan)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    seeds = list(range(args.seeds)) if args.seeds else [args.seed]
    summaries = map_units(
        [partial(demo_summary, seed, plan) for seed in seeds],
        jobs=args.jobs,
    )
    if args.json:
        print(json.dumps(summaries if args.seeds else summaries[0],
                         indent=2, sort_keys=True))
        return 0 if all(s["healthy"] for s in summaries) else 1

    for s in summaries:
        print(f"seed={s['seed']} status={s['status']} "
              f"{'HEALTHY' if s['healthy'] else 'UNHEALTHY'}: "
              f"puts={s['puts']}/6 watch={s['watch_events']}/6 "
              f"range={s['range_rows']}/6 "
              f"converged={s['converged']} replicated={s['replicated']}")
        net = s["net"]
        print(f"  fabric: sent={net['sent']} delivered={net['delivered']} "
              f"dropped={net['dropped']} dials={net['dials']} | "
              f"steps={s['steps']} virtual={s['virtual_s']:g}s "
              f"faults={s['faults_fired']}")
        print(f"  schedule sha256={s['schedule_sha256'][:16]}… "
              f"message-log sha256={s['message_log_sha256'][:16]}… "
              f"({s['message_log_bytes']} bytes)")
    if not args.seeds:
        # Replay witness: the same seed must reproduce both digests.
        replay = demo_summary(seeds[0], plan)
        identical = (replay["schedule_sha256"] == summaries[0]["schedule_sha256"]
                     and replay["message_log_sha256"]
                     == summaries[0]["message_log_sha256"])
        print(f"  replay: {'identical' if identical else 'DIVERGED'} "
              f"(schedule + message log)")
        if not identical:
            return 1
    return 0 if all(s["healthy"] for s in summaries) else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from functools import partial

    from .net.demo import loadgen_summary
    from .parallel import map_units

    rate = None if args.rate is not None and args.rate <= 0 else args.rate
    seeds = list(range(args.seeds)) if args.seeds else [args.seed]
    summaries = map_units(
        [partial(loadgen_summary, seed, args.clients, args.requests,
                 rate, args.arrival) for seed in seeds],
        jobs=args.jobs,
    )
    if args.json:
        print(json.dumps(summaries if args.seeds else summaries[0],
                         indent=2, sort_keys=True))
        return 0 if all(not s["errors"] for s in summaries) else 1

    for s in summaries:
        lat = s["latency"]
        print(f"seed={s['seed']} status={s['status']}: "
              f"{s['requests']} requests from {s['clients']} client(s) "
              f"over {s['virtual_s']:g} virtual s "
              f"({s['rps_virtual']:,.0f} req/s, {s['steps']} steps)")
        print(f"  ok={s['ok']} errors={s['errors']}"
              + (f" {s['error_kinds']}" if s["error_kinds"] else ""))
        print(f"  latency mean={lat['mean']*1e3:.3f}ms "
              f"p50<={lat['p50']*1e3:.3f}ms p90<={lat['p90']*1e3:.3f}ms "
              f"p99<={lat['p99']*1e3:.3f}ms max={lat['max']*1e3:.3f}ms")
        net = s["net"]
        print(f"  fabric: sent={net['sent']} delivered={net['delivered']} "
              f"dropped={net['dropped']}")
    return 0 if all(not s["errors"] for s in summaries) else 1


def _resolve_target(target: str, fixed: bool = False):
    """Resolve a CLI target to ``(name, program, run_kwargs)``.

    Accepts a kernel id (``--fixed`` selects the fixed variant) or a
    mini-app chaos scenario, written ``app:minietcd`` or bare.  Raises
    SystemExit-friendly ValueError with the candidates on a miss.
    """
    from .inject import scenarios

    apps = {name: (program, kwargs)
            for name, program, kwargs in scenarios.all_scenarios()}
    app_name = target[4:] if target.startswith("app:") else target
    if app_name in apps:
        program, kwargs = apps[app_name]
        return app_name, program, dict(kwargs)
    try:
        kernel = registry.get(target)
    except KeyError:
        known = ", ".join(sorted(apps))
        raise ValueError(
            f"unknown target {target!r}: expected a kernel id "
            f"(see `repro kernels`) or one of the app scenarios: {known}")
    program = kernel.fixed if fixed else kernel.buggy
    variant = "fixed" if fixed else "buggy"
    return f"{target}[{variant}]", program, dict(kernel.run_kwargs)


def _observed_run(args: argparse.Namespace):
    from .observe import Observer

    name, program, kwargs = _resolve_target(args.target, fixed=args.fixed)
    observer = Observer(capture_sites=not getattr(args, "no_sites", False))
    result = run(program, seed=args.seed, observe=observer, **kwargs)
    return name, result, observer


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        name, result, observer = _observed_run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = observer.to_dict()
        payload["target"] = name
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"target: {name}")
    print(observer.render(top=args.top))
    if args.flame:
        print()
        print(observer.flamegraph())
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from .observe import chrome_trace_json, sync_events_json

    try:
        name, result, observer = _observed_run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.sync:
        document = sync_events_json(result, indent=args.indent)
    else:
        document = chrome_trace_json(result, observer,
                                     include_memory=args.memory,
                                     indent=args.indent)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
            handle.write("\n")
        print(f"{args.output}: {name} seed={args.seed} "
              f"status={result.status} ({len(document)} bytes)")
    else:
        print(document)
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .runtime.timeline import blocked_summary, timeline

    try:
        name, program, kwargs = _resolve_target(args.target, fixed=args.fixed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run(program, seed=args.seed, **kwargs)
    print(f"target: {name} seed={args.seed}")
    print(timeline(result, max_width=args.width,
                   include_memory=args.memory))
    if result.leaked:
        print("stuck goroutines:")
        print(blocked_summary(result))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import os

    from .predict import (
        SyncTrace,
        TriageVerdict,
        confirm_predictions,
        predict,
        predict_kernel,
    )

    program = None
    kwargs: dict = {}
    oracle = None
    if os.path.isfile(args.target):
        if args.confirm:
            print("error: --confirm needs a runnable target (kernel id or "
                  "app scenario), not a trace file", file=sys.stderr)
            return 2
        with open(args.target, "r", encoding="utf-8") as handle:
            trace = SyncTrace.from_json(handle.read())
        report = predict(trace, target=args.target)
        seed = trace.seed
    else:
        try:
            name, program, kwargs = _resolve_target(args.target,
                                                    fixed=args.fixed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            kernel = registry.get(args.target)
        except KeyError:
            kernel = None
        if kernel is not None and not args.fixed:
            oracle = kernel.manifested
        if kernel is not None and args.seed is None:
            # Scan for a passing run: the adversarial input for a
            # predictor is a trace where nothing went wrong.
            report, seed = predict_kernel(kernel, fixed=args.fixed,
                                          runs=args.runs)
            report.target = name
        else:
            seed = args.seed if args.seed is not None else 0
            result = run(program, seed=seed, **kwargs)
            report = predict(result, target=name)

    if args.triage:
        verdict = TriageVerdict(target=report.target,
                                needs_search=report.found,
                                families=tuple(sorted(report.by_family())),
                                report=report,
                                seed=seed if seed is not None else 0)
        if args.json:
            print(json.dumps(verdict.to_dict(), indent=2))
        else:
            print(verdict)
        return 0

    outcomes = None
    if args.confirm and program is not None:
        outcomes = confirm_predictions(report, program, run_kwargs=kwargs,
                                       oracle=oracle,
                                       max_runs=args.max_runs,
                                       jobs=args.jobs)

    if args.json:
        payload = report.to_dict()
        if outcomes is not None:
            payload["confirm"] = [o.to_dict() for o in outcomes]
        print(json.dumps(payload, indent=2))
        return 0

    print(report.render())
    if outcomes is not None:
        print("confirmation (schedule search over the predictions):")
        for outcome in outcomes:
            mark = {True: "CONFIRMED", False: "unconfirmed",
                    None: "no oracle"}[outcome.confirmed]
            line = (f"  [{mark}] {outcome.prediction.family}/"
                    f"{outcome.prediction.rule}")
            if outcome.witness is not None:
                line += f"  witness={outcome.witness}"
            if outcome.runs:
                line += f"  ({outcome.runs} runs)"
            if outcome.note:
                line += f"  -- {outcome.note}"
            print(line)
    return 0


def _cmd_static(args: argparse.Namespace) -> int:
    import os

    from .static import (
        analyze_paths,
        analyze_program,
        build_static_scorecard,
        render_static_scorecard,
        scan_apps,
        scorecard_dict,
        triage_report,
        triage_sweep,
    )

    if args.scorecard:
        rows = build_static_scorecard()
        apps = scan_apps()
        if args.json:
            print(json.dumps(scorecard_dict(rows, apps), indent=2))
        else:
            print(render_static_scorecard(rows, apps))
        bad = any(not r.caught or not r.fixed_ok for r in rows)
        return 1 if bad else 0

    if args.triage and not args.target:
        verdicts = triage_sweep(fixed=args.fixed)
        if args.json:
            print(json.dumps([v.to_dict() for v in verdicts], indent=2))
        else:
            for verdict in verdicts:
                print(verdict)
        return 0

    if not args.target:
        print("error: give a kernel id or source path, or --scorecard",
              file=sys.stderr)
        return 2

    paths = [t for t in args.target if os.path.exists(t)]
    reports = []
    for kid in (t for t in args.target if not os.path.exists(t)):
        try:
            kernel = registry.get(kid)
        except KeyError:
            print(f"error: unknown kernel or path: {kid}", file=sys.stderr)
            return 2
        reports.append(analyze_program(
            kernel, variant="fixed" if args.fixed else "buggy"))
    if paths:
        reports.append(analyze_paths(paths))

    if args.triage:
        verdicts = [triage_report(r) for r in reports]
        if args.json:
            payload = [v.to_dict() for v in verdicts]
            print(json.dumps(payload[0] if len(payload) == 1 else payload,
                             indent=2))
        else:
            for verdict in verdicts:
                print(verdict)
        return 0

    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
        return 0
    for report in reports:
        print(report.render())
    return 1 if any(r.found for r in reports) else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import main as bench_main

    forwarded = []
    if args.jobs:
        forwarded += ["--jobs", str(args.jobs)]
    forwarded += ["--repeats", str(args.repeats),
                  "--sweep-seeds", str(args.sweep_seeds)]
    if args.net:
        forwarded.append("--net")
    if args.recovery:
        forwarded.append("--recovery")
    if args.explore:
        forwarded.append("--explore")
    if args.predict:
        forwarded.append("--predict")
    if args.static:
        forwarded.append("--static")
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.compare_backends:
        forwarded.append("--compare-backends")
    if args.guard:
        forwarded += ["--guard", args.guard,
                      "--guard-threshold", str(args.guard_threshold)]
    if args.json:
        forwarded.append("--json")
    if args.out:
        forwarded += ["--out", args.out]
    return bench_main(forwarded)


def _cmd_scan(args: argparse.Namespace) -> int:
    findings = scan_paths(args.paths)
    for finding in findings:
        print(finding)
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Understanding Real-World Concurrency "
                     "Bugs in Go' (ASPLOS 2019)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("report", help="regenerate the paper's evaluation")

    def add_jobs_arg(p):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for seed sweeps (default: 1 "
                            "for CI reproducibility; any value yields "
                            "identical results)")

    kernels = sub.add_parser("kernels", help="list the bug corpus")
    kernels.add_argument("--blocking", action="store_true")
    kernels.add_argument("--nonblocking", action="store_true")
    kernels.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")

    runk = sub.add_parser("run-kernel", help="execute one kernel")
    runk.add_argument("kernel_id")
    runk.add_argument("--seed", type=int, default=0)
    runk.add_argument("--fixed", action="store_true",
                      help="run the fixed variant instead of the buggy one")
    runk.add_argument("--sweep", type=int, metavar="N",
                      help="run seeds 0..N-1 and report the manifestation rate")
    runk.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON instead of text")
    add_jobs_arg(runk)

    detect = sub.add_parser("detect", help="run every detector on a kernel")
    detect.add_argument("kernel_id")
    detect.add_argument("--seed", type=int, default=None)
    detect.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    add_jobs_arg(detect)

    scan = sub.add_parser("scan", help="static loop-capture scan")
    scan.add_argument("paths", nargs="+")

    bench = sub.add_parser(
        "bench", help="simulator performance benchmarks (fast path + sweep "
                      "scaling; see BENCH_simulator.json for the baseline)"
    )
    bench.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="workers for the sweep benchmark "
                            "(default: all cpus)")
    bench.add_argument("--repeats", type=int, default=3, metavar="N",
                       help="timing repeats per workload (default: 3)")
    bench.add_argument("--sweep-seeds", type=int, default=64, metavar="N",
                       help="seeds in the sweep benchmark (default: 64)")
    bench.add_argument("--explore", action="store_true",
                       help="run only the exploration-pruning benchmarks")
    bench.add_argument("--predict", action="store_true",
                       help="run the predictive-analysis benchmarks instead "
                            "(scorecard vs dynamic detectors + triage "
                            "savings; baseline: BENCH_predict.json)")
    bench.add_argument("--static", action="store_true",
                       help="run the static-analysis benchmarks instead "
                            "(scorecard vs ground-truth labels + triage "
                            "savings; baseline: BENCH_static.json)")
    bench.add_argument("--baseline", metavar="FILE",
                       help="print a delta table against a committed "
                            "benchmark document")
    bench.add_argument("--recovery", action="store_true",
                       help="run the crash-recovery benchmarks instead "
                            "(verdicts + recovery-time distributions under "
                            "crash faults)")
    bench.add_argument("--net", action="store_true",
                       help="run the network benchmarks instead (fabric "
                            "round trips, RPC echo, loadgen throughput; "
                            "baseline: BENCH_net.json)")
    bench.add_argument("--compare-backends", action="store_true",
                       help="also time each workload on the thread backend "
                            "and check digest equality vs the coroutine "
                            "core (adds a 'backends' section)")
    bench.add_argument("--guard", metavar="FILE",
                       help="exit 1 if any fast/traced cell dropped more "
                            "than --guard-threshold vs FILE")
    bench.add_argument("--guard-threshold", type=float, default=20.0,
                       metavar="PCT",
                       help="regression threshold for --guard, percent "
                            "(default: 20)")
    bench.add_argument("--json", action="store_true",
                       help="print the JSON document instead of the table")
    bench.add_argument("--out", metavar="FILE",
                       help="also write the JSON document to FILE")

    explore = sub.add_parser(
        "explore", aliases=["explore-systematic"],
        help="systematically enumerate a kernel's schedules"
    )
    explore.add_argument("kernel_id")
    explore.add_argument("--max-runs", type=int, default=500)
    explore.add_argument("--fixed", action="store_true")
    explore.add_argument("--stats", action="store_true",
                         help="print work accounting: runs executed vs "
                              "pruned, tree depth, wall time")
    explore.add_argument("--no-prune", action="store_true",
                         help="disable sleep-set schedule-equivalence "
                              "pruning (explore the raw tree)")
    explore.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")
    add_jobs_arg(explore)

    export = sub.add_parser(
        "export", help="write tables/figures as TSV/JSON artifacts"
    )
    export.add_argument("directory")

    usage = sub.add_parser(
        "usage", help="Table 2/4-style concurrency profile of a package"
    )
    usage.add_argument("paths", nargs="+")

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweep with a resilience scorecard"
    )
    chaos.add_argument("--apps", action="store_true",
                       help="sweep the six hardened mini-app workloads")
    chaos.add_argument("--net-apps", action="store_true",
                       help="sweep the multi-node cluster workloads "
                            "(default plan: partition)")
    chaos.add_argument("--recovery", action="store_true",
                       help="sweep the supervised crash-recovery cluster "
                            "workloads (convergence verdicts in the "
                            "scorecard; default plans: crash-restart and "
                            "crash-storm)")
    chaos.add_argument("--kernel", action="append", metavar="ID",
                       help="also sweep this bug kernel (repeatable)")
    chaos.add_argument("--fixed", action="store_true",
                       help="use the fixed variant of --kernel targets")
    chaos.add_argument("--seeds", type=int, default=10, metavar="N",
                       help="seeds 0..N-1 per cell (default: 10)")
    chaos.add_argument("--plan", action="append", metavar="NAME",
                       help="named plan from the registry (repeatable; "
                            "default: the perturbation suite)")
    chaos.add_argument("--plan-file", action="append", metavar="PATH",
                       help="load a serialized FaultPlan from a JSON file")
    chaos.add_argument("--no-baseline", action="store_true",
                       help="skip the no-faults baseline column")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list registered plan names and exit")
    chaos.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    chaos.add_argument("--observe", action="store_true",
                       help="attach an observer to every run and add "
                            "per-cell metrics columns to the scorecard")
    add_jobs_arg(chaos)

    net_demo = sub.add_parser(
        "net-demo",
        help="3-node minietcd cluster over the simulated network, with "
             "fabric stats and determinism digests",
    )
    net_demo.add_argument("--seed", type=int, default=0,
                          help="scheduler seed (default: 0)")
    net_demo.add_argument("--seeds", type=int, default=0, metavar="N",
                          help="sweep seeds 0..N-1 instead of one --seed run")
    net_demo.add_argument("--plan", metavar="NAME",
                          help="inject a named fault plan (e.g. partition, "
                               "slow-links; see `repro chaos --list-plans`)")
    net_demo.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of text")
    add_jobs_arg(net_demo)

    loadgen = sub.add_parser(
        "loadgen",
        help="virtual-time load generator against the echo service",
    )
    loadgen.add_argument("--clients", type=int, default=8, metavar="N",
                         help="concurrent simulated clients (default: 8)")
    loadgen.add_argument("--requests", type=int, default=100, metavar="N",
                         help="requests per client (default: 100)")
    loadgen.add_argument("--rate", type=float, default=200.0, metavar="R",
                         help="mean requests per virtual second per client; "
                              "0 = closed loop (default: 200)")
    loadgen.add_argument("--arrival", choices=("poisson", "uniform"),
                         default="poisson",
                         help="arrival process (default: poisson)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="scheduler seed (default: 0)")
    loadgen.add_argument("--seeds", type=int, default=0, metavar="N",
                         help="sweep seeds 0..N-1 instead of one --seed run")
    loadgen.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")
    add_jobs_arg(loadgen)

    def add_target_args(p, seed_help="scheduler seed (default: 0)"):
        p.add_argument("target",
                       help="kernel id (see `repro kernels`) or app "
                            "scenario name (e.g. app:minietcd)")
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--fixed", action="store_true",
                       help="use the fixed variant of a kernel target")

    profile = sub.add_parser(
        "profile",
        help="goroutine/block/mutex profiles + metrics for one observed run",
    )
    add_target_args(profile)
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="rows per profile table (default: 10)")
    profile.add_argument("--flame", action="store_true",
                         help="also render the blocked-time text flamegraph")
    profile.add_argument("--no-sites", action="store_true",
                         help="skip call-site capture (faster, coarser)")
    profile.add_argument("--json", action="store_true",
                         help="emit the stable JSON dump instead of text")

    trace_export = sub.add_parser(
        "trace-export",
        help="export one run as Chrome trace_event JSON (about:tracing)",
    )
    add_target_args(trace_export)
    trace_export.add_argument("-o", "--output", metavar="FILE",
                              help="write to FILE instead of stdout")
    trace_export.add_argument("--indent", type=int, default=None,
                              help="pretty-print with this indent")
    trace_export.add_argument("--memory", action="store_true",
                              help="include MEM_READ/MEM_WRITE instants")
    trace_export.add_argument("--sync", action="store_true",
                              help="write the sync-event stream consumed "
                                   "by `repro predict` instead of the "
                                   "Chrome trace")

    tl = sub.add_parser(
        "timeline", help="per-goroutine ASCII lane diagram of one run"
    )
    add_target_args(tl)
    tl.add_argument("--width", type=int, default=100,
                    help="max lane width in characters (default: 100)")
    tl.add_argument("--memory", action="store_true",
                    help="include modelled memory accesses in the lanes")

    predictp = sub.add_parser(
        "predict",
        help="offline predictive analysis of one recorded run",
    )
    predictp.add_argument("target",
                          help="kernel id, app scenario, or path to a "
                               "sync-event JSON file written by "
                               "`repro trace-export --sync`")
    predictp.add_argument("--fixed", action="store_true",
                          help="analyze the kernel's fixed variant")
    predictp.add_argument("--seed", type=int, default=None,
                          help="record this exact seed instead of "
                               "scanning for a passing run")
    predictp.add_argument("--runs", type=int, default=25,
                          help="seeds scanned for a passing (adversarial) "
                               "run when --seed is not given (default: 25)")
    predictp.add_argument("--confirm", action="store_true",
                          help="search schedules for a replayable witness "
                               "behind every prediction")
    predictp.add_argument("--max-runs", type=int, default=300,
                          help="schedule-search budget per prediction "
                               "for --confirm (default: 300)")
    predictp.add_argument("--triage", action="store_true",
                          help="print only the needs-schedule-search "
                               "verdict (the explore pre-filter)")
    predictp.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of text")
    add_jobs_arg(predictp)

    staticp = sub.add_parser(
        "static",
        help="whole-program static analysis (no execution at all)",
    )
    staticp.add_argument("target", nargs="*",
                         help="kernel ids (summary-model analysis) and/or "
                              "source paths (module-mode scan); omit with "
                              "--scorecard or --triage for the full corpus")
    staticp.add_argument("--fixed", action="store_true",
                         help="analyze kernels' fixed variants")
    staticp.add_argument("--scorecard", action="store_true",
                         help="scan every kernel (both variants) plus the "
                              "mini-apps and score against the ground-truth "
                              "taxonomy labels; exit 1 on a miss or false "
                              "positive")
    staticp.add_argument("--triage", action="store_true",
                         help="print needs-schedule-search verdicts (the "
                              "sweep-queue pre-filter; whole corpus when no "
                              "target is given)")
    staticp.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of text")

    return parser


_COMMANDS = {
    "report": _cmd_report,
    "kernels": _cmd_kernels,
    "run-kernel": _cmd_run_kernel,
    "detect": _cmd_detect,
    "scan": _cmd_scan,
    "bench": _cmd_bench,
    "explore": _cmd_explore,
    "explore-systematic": _cmd_explore,
    "export": _cmd_export,
    "usage": _cmd_usage,
    "chaos": _cmd_chaos,
    "net-demo": _cmd_net_demo,
    "loadgen": _cmd_loadgen,
    "profile": _cmd_profile,
    "trace-export": _cmd_trace_export,
    "timeline": _cmd_timeline,
    "predict": _cmd_predict,
    "static": _cmd_static,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
