#!/usr/bin/env python
"""Run all four detectors across the executable bug corpus.

The paper's Section 5.3 / 6.3 experiments as an interactive tour: every
kernel's buggy variant goes through the built-in deadlock detector, the
goroutine-leak extension, the happens-before race detector, and the
channel-rule checker; the static capture checker scans the corpus source.

Run:  python examples/detector_hunt.py
"""

from collections import Counter
from pathlib import Path

from repro import run
from repro.bugs import registry
from repro.dataset.records import Behavior
from repro.detect import (
    BuiltinDeadlockDetector,
    ChannelRuleChecker,
    GoroutineLeakDetector,
    RaceDetector,
)
from repro.static.capture import check_paths, check_source


def manifesting_seed(kernel):
    if kernel.meta.deterministic:
        return 0
    seeds = kernel.manifestation_seeds(range(40))
    return seeds[0] if seeds else 0


def hunt_blocking():
    print("== blocking corpus: built-in detector vs leak detector ==")
    builtin = BuiltinDeadlockDetector()
    leakdet = GoroutineLeakDetector()
    score = Counter()
    for kernel in registry.blocking_kernels():
        result = kernel.run_buggy(seed=manifesting_seed(kernel))
        b = builtin.classify(result)
        l = leakdet.classify(result)
        score["builtin"] += b
        score["leakdet"] += l
        marker = "!!" if b else ("ok" if l else "??")
        print(f"   [{marker}] {kernel.meta.kernel_id:<48} "
              f"status={result.status:<9} builtin={'HIT ' if b else 'miss'} "
              f"leakdet={'HIT' if l else 'miss'}")
    total = len(registry.blocking_kernels())
    print(f"   built-in: {score['builtin']}/{total} "
          f"(paper: 2/21) — leak detector: {score['leakdet']}/{total}\n")


def hunt_nonblocking(runs=25):
    print(f"== non-blocking corpus: race detector, {runs} runs each ==")
    detected = Counter()
    used = Counter()
    for kernel in registry.nonblocking_kernels():
        sub = str(kernel.meta.subcause)
        used[sub] += 1
        hits = 0
        for seed in range(runs):
            det = RaceDetector()
            kernel.run_buggy(seed=seed, observers=[det])
            hits += det.detected
        if hits:
            detected[sub] += 1
        rate = f"{hits}/{runs}"
        print(f"   {kernel.meta.kernel_id:<48} race-detected in {rate} runs")
    print("   by category: " + ", ".join(
        f"{sub} {detected[sub]}/{used[sub]}" for sub in sorted(used)))
    print("   (paper: traditional 7/13, anonymous 3/4, all others 0)\n")


def hunt_rules():
    print("== channel-rule checker over every buggy kernel ==")
    violations = Counter()
    for kernel in registry.all_kernels():
        checker = ChannelRuleChecker()
        kwargs = dict(kernel.run_kwargs)
        run(kernel.buggy, seed=manifesting_seed(kernel),
            observers=[checker], **kwargs)
        for violation in checker.violations:
            violations[violation.rule] += 1
    for rule, count in violations.most_common():
        print(f"   {rule:<32} {count} kernels")
    print()


def hunt_captures():
    print("== static capture checker over the corpus source ==")
    corpus_dir = Path(registry.__file__).parent
    findings = check_paths([corpus_dir])
    for finding in findings:
        print(f"   {finding}")
    if not findings:
        print("   (corpus kernels encode capture races through SharedVar, "
              "so source-level captures are in their fixed form)")
    figure8 = (
        "def prog(rt):\n"
        "    for i in range(17, 22):\n"
        "        rt.go(lambda: serve('v1.%d' % i))\n"
    )
    print("   on Figure 8's literal shape:")
    for finding in check_source(figure8, "figure8.py"):
        print(f"   {finding}")


if __name__ == "__main__":
    hunt_blocking()
    hunt_nonblocking()
    hunt_rules()
    hunt_captures()
