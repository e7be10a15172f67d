"""The static analysis engine: one entry point per target shape.

Program mode (``analyze_kernel``) interprets a corpus kernel variant
into a :class:`~repro.static.ir.ProgramModel` and runs the model
checkers — lockgraph, chanshape, sharedrace — plus the syntactic
capture scanner.  The interpreter and the capture scan read the same
class node from the source model (:mod:`.source`), which parses each
module file once per process; a class with no readable source fails
there, for both.  Module mode (``analyze_paths``) scans arbitrary
source files (the mini-apps, user code) with the syntactic checkers
only.  Both return :class:`~repro.static.model.StaticReport` with
per-checker wall times, so ``repro bench --static`` can account for
every stage.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from . import capture, chanshape, lockgraph, sharedrace
from .interp import build_model
from .ir import ProgramModel
from .model import StaticFinding, StaticReport, dedupe
from .source import class_node

#: the model checkers, in report order
MODEL_CHECKERS: Tuple[Tuple[str, Callable[[ProgramModel],
                                          List[StaticFinding]]], ...] = (
    ("lockgraph", lockgraph.check),
    ("chanshape", chanshape.check),
    ("sharedrace", sharedrace.check),
)


def analyze_program(kernel_cls: Any, variant: str = "buggy",
                    target: Optional[str] = None) -> StaticReport:
    """Interpret one kernel variant and run every checker over it."""
    t_start = time.perf_counter()
    timings = {}
    t0 = time.perf_counter()
    model = build_model(kernel_cls, variant)
    timings["interp"] = time.perf_counter() - t0

    findings: List[StaticFinding] = []
    for name, checker in MODEL_CHECKERS:
        t0 = time.perf_counter()
        findings.extend(checker(model))
        timings[name] = time.perf_counter() - t0

    t0 = time.perf_counter()
    findings.extend(_capture_program(kernel_cls, variant))
    timings["capture"] = time.perf_counter() - t0

    label = target or model.target
    findings = [_with_path(f, label) for f in dedupe(findings)]
    return StaticReport(target=label, findings=findings, timings=timings,
                        wall_s=time.perf_counter() - t_start,
                        mode="program")


def analyze_kernel(kernel: Any, variant: str = "buggy") -> StaticReport:
    """``analyze_program`` with the corpus naming convention."""
    return analyze_program(kernel, variant=variant)


def _capture_program(kernel_cls: Any, variant: str) -> List[StaticFinding]:
    """Run the syntactic capture scanner on the variant's entry code.

    Scanning only the relevant variant (plus shared helpers) keeps a
    capture bug in ``buggy`` from bleeding into the ``fixed`` report.
    """
    other = "fixed" if variant == "buggy" else "buggy"
    kept = [n for n in class_node(kernel_cls).body
            if not (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n.name == other)]
    module = ast.Module(body=kept, type_ignores=[])
    name = getattr(getattr(kernel_cls, "meta", None), "kernel_id",
                   kernel_cls.__name__)
    return capture.check_tree(module, path=f"{name} ({variant})")


def _with_path(f: StaticFinding, label: str) -> StaticFinding:
    if f.path:
        return f
    return StaticFinding(checker=f.checker, rule=f.rule, message=f.message,
                         obj=f.obj, function=f.function, path=label,
                         line=f.line)


def analyze_paths(paths: Iterable[Union[str, Path]]) -> StaticReport:
    """Module mode: syntactic checks over arbitrary source files."""
    t_start = time.perf_counter()
    timings = {}
    t0 = time.perf_counter()
    findings = capture.check_paths(paths)
    timings["capture"] = time.perf_counter() - t0
    targets = ", ".join(str(p) for p in paths)
    return StaticReport(target=targets or "<empty>",
                        findings=dedupe(findings), timings=timings,
                        wall_s=time.perf_counter() - t_start,
                        mode="module")


def analyze_corpus(variant: str = "buggy") -> List[StaticReport]:
    """Scan every registered kernel's ``variant`` with every checker."""
    from ..bugs.registry import all_kernels

    return [analyze_program(k, variant=variant) for k in all_kernels()]
