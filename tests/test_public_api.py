"""The public API surface stays importable and complete."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("module", [
    "repro.runtime",
    "repro.chan",
    "repro.sync",
    "repro.stdlib",
    "repro.detect",
    "repro.bugs",
    "repro.bugs.registry",
    "repro.bugs.scorecard",
    "repro.dataset",
    "repro.dataset.go171",
    "repro.dataset.paper_values",
    "repro.study",
    "repro.study.report",
    "repro.study.export",
    "repro.apps",
    "repro.apps.minietcd.cluster",
    "repro.inject",
    "repro.net",
    "repro.net.demo",
    "repro.cli",
    "repro.runtime.timeline",
    "repro.detect.systematic",
    "repro.stdlib.errgroup",
])
def test_submodules_import(module):
    importlib.import_module(module)


def test_subpackage_all_exports_resolve():
    for module_name in ("repro.runtime", "repro.chan", "repro.sync",
                        "repro.stdlib", "repro.detect", "repro.dataset",
                        "repro.net", "repro.predict", "repro.static"):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (module_name, name)


def test_detect_does_not_load_the_static_tier():
    """The runtime detectors stand alone: importing them must not pull in
    the static analyzer (set-up cost on every detect-only process)."""
    code = ("import sys, repro.detect; "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.static' or m.startswith('repro.static.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_public_docstrings_present():
    """Every public module and class carries a docstring."""
    import inspect

    modules = [
        importlib.import_module(name) for name in (
            "repro", "repro.runtime.runtime", "repro.chan.channel",
            "repro.sync.mutex", "repro.detect.race", "repro.study.lift",
        )
    ]
    for module in modules:
        assert module.__doc__, module.__name__
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and not name.startswith("_"):
                assert obj.__doc__, f"{module.__name__}.{obj.__name__}"
