"""Figure 2/3 series: stability, complementarity, Table 4 convergence."""

import os
import subprocess
import sys

import pytest

from repro.dataset import paper_values, usage_history
from repro.dataset.records import App


def test_snapshot_axis_matches_paper_window():
    assert usage_history.SNAPSHOTS[0] == "15-02"
    assert usage_history.SNAPSHOTS[-1] == "18-05"
    assert len(usage_history.SNAPSHOTS) == 40  # monthly, Feb'15..May'18


def test_series_are_stable_over_time():
    """Observation 2's premise: the usage mix barely moves."""
    for app in App:
        series = usage_history.shared_memory_series(app)
        assert usage_history.stability(series) < 0.05


def test_series_end_at_table4_levels():
    for app in App:
        series = usage_history.shared_memory_series(app)
        expected = paper_values.SHARED_MEMORY_PROPORTION[app]
        assert series[-1] == pytest.approx(expected, abs=0.02)


def test_figure3_is_complement_of_figure2():
    for app in App:
        shared = usage_history.shared_memory_series(app)
        message = usage_history.message_passing_series(app)
        for s, m in zip(shared, message):
            assert s + m == pytest.approx(1.0, abs=1e-6)


def test_all_series_bundle():
    bundle = usage_history.all_series()
    assert set(bundle) == set(App)
    for data in bundle.values():
        assert len(data["shared"]) == len(usage_history.SNAPSHOTS)


def test_proportions_bounded():
    for app in App:
        for v in usage_history.shared_memory_series(app):
            assert 0.0 <= v <= 1.0


def test_etcd_has_highest_message_passing_share():
    """Table 4: etcd's chan share (42.99%) tops the six apps."""
    finals = {
        app: usage_history.message_passing_series(app)[-1] for app in App
    }
    assert max(finals, key=finals.get) == App.ETCD


_SERIES_SCRIPT = """
import json
from repro.dataset import usage_history
print(json.dumps({app.value: data
                  for app, data in usage_history.all_series().items()}))
"""


def _series_under_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _SERIES_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    return proc.stdout


def test_series_do_not_depend_on_the_hash_seed():
    """Figures 2/3 are reproducible across processes: no salted hash()."""
    assert _series_under_hash_seed(1) == _series_under_hash_seed(2)
