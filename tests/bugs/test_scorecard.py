"""Scorecard unit tests (the bench runs the full matrix)."""

from repro.bugs.registry import get
from repro.bugs.scorecard import ScorecardRow, evaluate_kernel, render_scorecard


def test_evaluate_blocking_kernel():
    row = evaluate_kernel(get("blocking-mutex-boltdb-392"), runs=5)
    assert row.manifestation_rate == 1.0
    assert row.builtin_deadlock and row.leak_detector
    assert row.caught_by_any


def test_evaluate_race_kernel():
    row = evaluate_kernel(get("nonblocking-trad-docker-lost-update"), runs=10)
    assert row.race_detector
    assert not row.builtin_deadlock


def test_row_rate_derives_from_manifesting_seeds():
    kernel = get("nonblocking-trad-docker-lost-update")
    row = evaluate_kernel(kernel, runs=10)
    assert row.runs == 10
    assert row.manifesting_seeds == tuple(
        kernel.manifestation_seeds(range(10)))
    assert row.manifestation_rate == len(row.manifesting_seeds) / 10


def test_render_scorecard_shape():
    rows = [
        evaluate_kernel(get("blocking-mutex-kubernetes-abba"), runs=5),
        evaluate_kernel(get("nonblocking-anon-docker-30603"), runs=5),
    ]
    text = render_scorecard(rows)
    assert "Corpus scorecard" in text
    assert "caught by at least one detector: 2/2" in text
    assert text.count("X") >= 2
