"""Loop-variable capture checker (Figure 8) — the syntactic peer.

Section 7 of the paper: "As a preliminary effort, we built a detector
targeting the non-blocking bugs caused by anonymous functions (e.g.
Figure 8).  Our detector has already discovered a few new bugs."

One checker among the static-analysis peers, emitting the shared
:class:`~repro.static.model.StaticFinding` schema.  Unlike the
model-based checkers it needs no abstract interpretation — it pattern
matches the AST directly — which is exactly why it also powers *module
mode*: scanning arbitrary files (the mini-apps, user code) where no
whole-program model exists.

Figure 8's pattern exists verbatim in Python: a closure created inside a
loop captures the loop variable *by reference*, so every goroutine
started with ``rt.go(closure)`` may observe the final value.  The fix —
a default-argument copy, ``def w(i=i)``, or passing ``i`` as an
``rt.go`` argument — is the exact analogue of Docker's "pass i as a
parameter" patch.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Union

from .model import StaticFinding

_CHECKER = "capture"
RULE = "loop-var-capture"


def _loop_target_names(node: ast.For) -> Set[str]:
    names: Set[str] = set()
    for target in ast.walk(node.target):
        if isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _free_reads(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda]) -> Set[str]:
    """Names read inside ``fn`` that are neither params nor locally bound."""
    params: Set[str] = set()
    args = fn.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        params.add(arg.arg)
    if args.vararg:
        params.add(args.vararg.arg)
    if args.kwarg:
        params.add(args.kwarg.arg)

    bound: Set[str] = set(params)
    reads: Set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                elif isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
    return reads - bound


class _GoCallCollector(ast.NodeVisitor):
    """Finds ``<anything>.go(fn, ...)`` calls and local function defs."""

    def __init__(self) -> None:
        self.go_calls: List[ast.Call] = []
        self.local_defs: Dict[str, ast.FunctionDef] = {}

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "go":
            self.go_calls.append(node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.local_defs[node.name] = node
        self.generic_visit(node)


def _scan_loop(loop: ast.For, path: str,
               findings: List[StaticFinding]) -> None:
    loop_vars = _loop_target_names(loop)
    if not loop_vars:
        return
    collector = _GoCallCollector()
    for stmt in loop.body + loop.orelse:
        collector.visit(stmt)
    for call in collector.go_calls:
        if not call.args:
            continue
        target = call.args[0]
        fn_node: Optional[Union[ast.FunctionDef, ast.Lambda]] = None
        fn_name = "<lambda>"
        if isinstance(target, ast.Lambda):
            fn_node = target
        elif isinstance(target, ast.Name) \
                and target.id in collector.local_defs:
            fn_node = collector.local_defs[target.id]
            fn_name = target.id
        if fn_node is None:
            continue
        # Default arguments rebind the loop variable: the standard fix.
        defaults: Set[str] = set()
        for arg, default in zip(
            reversed(fn_node.args.args), reversed(fn_node.args.defaults)
        ):
            if default is not None:
                defaults.add(arg.arg)
        captured = (_free_reads(fn_node) & loop_vars) - defaults
        # A parameter with the same name shadows the loop variable.
        params = {a.arg for a in fn_node.args.args}
        captured -= params
        for var in sorted(captured):
            findings.append(StaticFinding(
                checker=_CHECKER,
                rule=RULE,
                message=(f"goroutine closure {fn_name!r} captures loop "
                         f"variable {var!r} by reference"),
                obj=var,
                function=fn_name,
                path=path,
                line=call.lineno,
            ))


def check_tree(tree: ast.AST, path: str = "<string>"
               ) -> List[StaticFinding]:
    """Scan an already-parsed AST (program mode reuses one parse)."""
    findings: List[StaticFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            _scan_loop(node, path, findings)
    return findings


def check_source(source: str, path: str = "<string>"
                 ) -> List[StaticFinding]:
    """Scan one module's source text for goroutine loop-capture bugs."""
    return check_tree(ast.parse(source, filename=path), path)


def check_file(path: Union[str, Path]) -> List[StaticFinding]:
    path = Path(path)
    return check_source(path.read_text(encoding="utf-8"), str(path))


def check_paths(paths: Iterable[Union[str, Path]]) -> List[StaticFinding]:
    """Scan files and directories (recursively, ``*.py``)."""
    findings: List[StaticFinding] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file in sorted(entry.rglob("*.py")):
                findings.extend(check_file(file))
        else:
            findings.extend(check_file(entry))
    return findings
