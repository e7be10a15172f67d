"""``repro bench``: the predict and static documents and their CLI.

The documents are regenerated once per module and compared with the
committed ``BENCH_predict.json`` / ``BENCH_static.json``: every
non-timing value is deterministic, so the key layout, the scorecards and
the per-kernel triage savings must match the committed files exactly.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import bench, cli

ROOT = Path(__file__).resolve().parents[1]
SECTIONS = ("predict", "static")


def _committed(section):
    with open(ROOT / f"BENCH_{section}.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def documents():
    """``repro bench --<section> --json`` for both sections, parsed."""
    docs = {}
    for section in SECTIONS:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["bench", f"--{section}", "--json"]) == 0
        docs[section] = json.loads(out.getvalue())
    return docs


def _key_tree(node):
    if isinstance(node, dict):
        return {key: _key_tree(value) for key, value in node.items()}
    return None


def test_static_json_carries_the_recall_the_gate_reads(documents):
    # CI's static recall gate reads exactly this path.
    recall = documents["static"]["static"]["scorecard"]["recall"]
    assert isinstance(recall, float)
    assert recall == _committed("static")["static"]["scorecard"]["recall"]


@pytest.mark.parametrize("section", SECTIONS)
def test_document_key_tree_matches_committed(documents, section):
    assert _key_tree(documents[section]) == _key_tree(_committed(section))


@pytest.mark.parametrize("section", SECTIONS)
def test_scorecard_matches_committed(documents, section):
    timing = {"predict_wall_s", "scorecard_wall_s", "scan_wall_s",
              "apps_wall_s", "checker_seconds"}
    fresh = documents[section][section]["scorecard"]
    committed = _committed(section)[section]["scorecard"]
    assert ({k: v for k, v in fresh.items() if k not in timing}
            == {k: v for k, v in committed.items() if k not in timing})


@pytest.mark.parametrize("section", SECTIONS)
def test_triage_savings_match_committed(documents, section):
    """Predict saves ``runs - 1`` per clean kernel, static ``runs``."""
    fresh = documents[section][section]["triage"]
    committed = _committed(section)[section]["triage"]
    pinned = ("explore_runs", "explore_exhausted", "runs_saved",
              "triage_clean", "buggy_flagged")
    assert list(fresh["kernels"]) == list(bench.EXPLORE_KERNELS)
    for kid, row in fresh["kernels"].items():
        want = committed["kernels"][kid]
        assert {k: row[k] for k in pinned} == {k: want[k] for k in pinned}
        clean_cost = 1 if section == "predict" else 0
        assert row["runs_saved"] == row["explore_runs"] - clean_cost
    for key in ("false_skips", "total_runs_saved", "total_explore_runs",
                "all_fixed_screened_clean", "max_runs"):
        assert fresh[key] == committed[key], key


def test_render_prints_both_triage_tables(documents):
    text = bench.render({**documents["predict"], **documents["static"]})
    assert "triage screen vs explore-to-exhaustion" in text
    assert "static screen vs explore-to-exhaustion" in text
    assert "false skips: none" in text


@pytest.mark.parametrize("argv", [
    [],
    ["--predict", "--static"],
    ["--net"],
    ["--recovery"],
    ["--explore"],
    ["--compare-backends"],
    ["--predict", "--guard", "BENCH_predict.json"],
    ["--predict", "--baseline", "BENCH_predict.json"],
    ["--predict", "--jobs", "4"],
], ids=lambda argv: " ".join(argv) or "bare")
def test_removed_and_missing_flags_are_usage_errors(argv):
    for entry in (lambda: cli.main(["bench", *argv]),
                  lambda: bench.main(argv)):
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 2


def test_cli_forwards_section_and_out(monkeypatch, tmp_path):
    captured = {}

    def fake_main(argv):
        captured["argv"] = argv
        return 0

    monkeypatch.setattr("repro.bench.main", fake_main)
    out = str(tmp_path / "doc.json")
    assert cli.main(["bench", "--predict", "--out", out]) == 0
    assert captured["argv"] == ["--predict", "--out", out]
    assert cli.main(["bench", "--static", "--json"]) == 0
    assert captured["argv"] == ["--static", "--json"]
