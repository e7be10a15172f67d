"""Smoke test of the perfbench benchmark at a tiny size.

Every workload runs through ``perfbench/run.py --tiny --trace 1`` in a
subprocess: the metrics named in BENCHMARK.json must come out with their
units, the fresh-process samples must repeat the output witness exactly,
and the traced sample must leave it unchanged.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _bench(workload: str, out: Path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", "1", "--tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda w: _bench(w, tmp / f"{w}.json"), WORKLOADS)
        return dict(zip(WORKLOADS, results))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(runs, workload):
    proc, record = runs[workload]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert {k: v["unit"] for k, v in record["end_to_end"].items()} == END_TO_END
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        line = rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$"
        assert re.search(line, proc.stdout, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_witness_repeats_across_samples_and_tracing(runs, workload):
    _proc, record = runs[workload]
    assert len(record["samples"]) >= 2
    witnesses = {s["witness"] for s in record["samples"]}
    assert witnesses == {record["traced_sample"]["witness"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_committed_sets_agree():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"),
         f"{ROOT}/perfbench/results/seed.json:A",
         f"{ROOT}/perfbench/results/seed.json:B"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert "REGRESSION" not in proc.stdout
