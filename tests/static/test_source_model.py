"""The static tier's source model: one parse per module file.

Every kernel class reaches the interpreter and the capture scan as a
node of its module's one parsed tree.  These tests pin what that must
not change — every finding and every IR op, byte for byte, with the
class-relative line numbers findings print — and what it must: how
often the static tier parses source.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.bugs.registry import all_kernels
from repro.static import analyze_program, build_model
from repro.static.source import class_node

#: sha256 of every finding (``to_dict`` and ``str``) and every IR op
#: ``repr``, 54 kernels x buggy/fixed; see :func:`_corpus_digest`
CORPUS_GOLDEN = \
    "bf4143872b02082bc29ea6a03f7e43d6ffa89c4f660b20ef36979bd80aeac1c3"

VARIANTS = ("buggy", "fixed")


def _corpus_digest():
    digest = hashlib.sha256()
    for kernel in all_kernels():
        for variant in VARIANTS:
            for f in analyze_program(kernel, variant).findings:
                digest.update(json.dumps(f.to_dict(),
                                         sort_keys=True).encode())
                digest.update(str(f).encode())
            model = build_model(kernel, variant)
            for thread in model.threads:
                for path in thread.paths:
                    for op in path.ops:
                        digest.update(repr(op).encode())
    return digest.hexdigest()


def test_corpus_findings_and_ops_match_the_golden():
    assert len(all_kernels()) == 54
    assert _corpus_digest() == CORPUS_GOLDEN


def _run(script, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return proc.stdout


_FINDINGS_SCRIPT = """
from repro.bugs.registry import all_kernels
from repro.static import analyze_program
for kernel in all_kernels():
    for variant in ("buggy", "fixed"):
        for f in analyze_program(kernel, variant).findings:
            print(f)
"""


def test_findings_do_not_depend_on_the_hash_seed():
    """A rule that walks a set would name a different worker per seed."""
    out = _run(_FINDINGS_SCRIPT, PYTHONHASHSEED="0")
    assert "wg-wait-before-drain" in out
    assert out == _run(_FINDINGS_SCRIPT, PYTHONHASHSEED="1")


_PARSE_COUNT_SCRIPT = """
import ast, inspect, json, sys
from collections import Counter
from repro.bugs.registry import all_kernels

kernels = all_kernels()
parses, lookups = Counter(), Counter()
real_parse = ast.parse


def counting_parse(source, filename="<unknown>", *args, **kwargs):
    parses[filename] += 1
    return real_parse(source, filename, *args, **kwargs)


def counted(name, real):
    def wrapper(*args, **kwargs):
        lookups[name] += 1
        return real(*args, **kwargs)
    return wrapper


ast.parse = counting_parse
for name in ("getsource", "getsourcelines", "findsource"):
    setattr(inspect, name, counted(name, getattr(inspect, name)))

from repro.static import analyze_program
for kernel in kernels:
    for variant in ("buggy", "fixed"):
        analyze_program(kernel, variant)
files = sorted({sys.modules[k.__module__].__file__ for k in kernels})
print(json.dumps({"parses": parses, "lookups": lookups, "files": files}))
"""


def test_each_kernel_module_is_parsed_once():
    """108 scans, 12 module files: 12 parses and no inspect source lookup.

    Runs in a fresh process: the module index lives for the process, so
    an in-process count would depend on which tests ran first.
    """
    counts = json.loads(_run(_PARSE_COUNT_SCRIPT))
    assert len(counts["files"]) == 12
    assert counts["lookups"] == {}
    assert counts["parses"] == {path: 1 for path in counts["files"]}


def _local_double_lock():
    class LocalDoubleLock:
        @staticmethod
        def buggy(rt):
            mu = rt.mutex("mu")
            mu.lock()
            mu.lock()

        @staticmethod
        def fixed(rt):
            mu = rt.mutex("mu")
            mu.lock()
            mu.unlock()
    return LocalDoubleLock


def _decorated(cls):
    return cls


def _local_decorated_capture():
    @_decorated
    class LocalCapture:
        class Inner:
            pass

        @staticmethod
        def buggy(rt):
            for i in range(3):
                rt.go(lambda: print(i))

        @staticmethod
        def fixed(rt):
            for i in range(3):
                rt.go(lambda i=i: print(i))
    return LocalCapture


def _rules_at(kernel, variant):
    return sorted((f.rule, f.line)
                  for f in analyze_program(kernel, variant).findings)


def test_function_local_class_keeps_class_relative_lines():
    # Line 1 is the ``class`` line: the second lock is line 6, and the
    # first one, never released, line 5.
    kernel = _local_double_lock()
    assert _rules_at(kernel, "buggy") == [("double-lock", 6),
                                          ("forgotten-unlock", 5)]
    assert _rules_at(kernel, "fixed") == []
    assert [str(f) for f in analyze_program(kernel).findings] == [
        "[lockgraph/double-lock] mu acquired while already held by this "
        "goroutine (buggy:6 in main)",
        "[lockgraph/forgotten-unlock] path through main ends still holding "
        "mu (buggy:5 in main)",
    ]


def test_decorated_local_class_counts_from_its_decorator():
    # Line 1 is the decorator, so the ``rt.go`` call is line 9.
    kernel = _local_decorated_capture()
    assert _rules_at(kernel, "buggy") == [("loop-var-capture", 9)]
    assert _rules_at(kernel, "fixed") == []


def test_enclosed_class_is_numbered_on_a_copy():
    # Asking for the inner class must not renumber the outer one.
    outer = _local_decorated_capture()
    inner = class_node(outer.Inner)
    assert (inner.name, inner.lineno) == ("Inner", 1)
    node = class_node(outer)
    assert node.decorator_list[0].lineno == 1
    assert inner is not node.body[0] and node.body[0].lineno == 3
    assert class_node(outer.Inner) is inner


def test_class_without_source_fails_for_both_consumers():
    # The capture scan no longer hides what the interpreter raises on.
    from repro.static.engine import _capture_program

    kernel = type("Generated", (), {"buggy": staticmethod(lambda rt: None)})
    for scan in (class_node, build_model, analyze_program,
                 lambda k: _capture_program(k, "buggy")):
        with pytest.raises(OSError):
            scan(kernel)
