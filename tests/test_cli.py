"""CLI behavior (invoked in-process via cli.main)."""

import json

import pytest

from repro.cli import main


def test_kernels_lists_corpus(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "blocking-chan-kubernetes-5316" in out
    assert "figure 1" in out
    assert "kernels" in out.splitlines()[-1]


def test_kernels_filters(capsys):
    main(["kernels", "--blocking"])
    out = capsys.readouterr().out
    assert "nonblocking-" not in out
    main(["kernels", "--nonblocking"])
    out = capsys.readouterr().out
    assert "\nblocking-" not in out


def test_run_kernel_buggy_and_fixed(capsys):
    assert main(["run-kernel", "blocking-mutex-boltdb-392", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "status=deadlock" in out
    assert "manifested=True" in out

    assert main(["run-kernel", "blocking-mutex-boltdb-392", "--fixed"]) == 0
    out = capsys.readouterr().out
    assert "status=ok" in out
    assert "manifested=False" in out


def test_run_kernel_sweep(capsys):
    assert main(["run-kernel", "blocking-chan-kubernetes-5316",
                 "--sweep", "10"]) == 0
    out = capsys.readouterr().out
    assert "manifested on" in out and "/10 seeds" in out


@pytest.mark.parametrize("variant", [[], ["--fixed"]],
                         ids=["buggy", "fixed"])
def test_run_kernel_sweep_json_is_the_same_at_any_jobs(capsys, variant):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["run-kernel", "blocking-chan-kubernetes-5316",
                     "--sweep", "10", "--json", "--jobs", jobs]
                    + variant) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    assert data["variant"] == ("fixed" if variant else "buggy")
    assert data["sweep"] == 10


def test_detect_runs_all_detectors(capsys):
    assert main(["detect", "blocking-mutex-kubernetes-abba"]) == 0
    out = capsys.readouterr().out
    assert "built-in deadlock detector: miss" in out
    assert "goroutine-leak detector:    HIT" in out
    assert "lock-order detector:        HIT" in out
    assert "POTENTIAL DEADLOCK" in out


def test_detect_race_kernel(capsys):
    assert main(["detect", "nonblocking-trad-docker-lost-update"]) == 0
    out = capsys.readouterr().out
    assert "race detector:              HIT" in out
    assert "DATA RACE" in out


def test_static_flags_capture_bug(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def prog(rt):\n"
        "    for i in range(3):\n"
        "        rt.go(lambda: print(i))\n"
    )
    assert main(["static", str(bad)]) == 1  # findings -> nonzero, grep-style
    out = capsys.readouterr().out
    assert "captures loop variable 'i'" in out


def test_static_clean_file_returns_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main(["static", str(good)]) == 0


def test_report_prints_tables(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "Table 5. Taxonomy" in out
    assert "Table 11. Fix primitives" in out
    assert "headline findings" in out


def test_unknown_kernel_id_errors():
    with pytest.raises(KeyError):
        main(["run-kernel", "no-such-kernel"])


def test_explore_finds_counterexample(capsys):
    assert main(["explore", "nonblocking-trad-docker-lost-update",
                 "--max-runs", "200"]) == 0
    out = capsys.readouterr().out
    assert "counterexample after" in out
    assert "ScriptedChoices" in out


def test_explore_fixed_variant_is_clean(capsys):
    assert main(["explore", "nonblocking-trad-etcd-check-then-act",
                 "--fixed", "--max-runs", "150"]) == 0
    out = capsys.readouterr().out
    assert "counterexample after" not in out
    assert ("property holds" in out) or ("without a counterexample" in out)


@pytest.mark.parametrize("argv", [
    ["explore", "nonblocking-trad-docker-lost-update", "--jobs", "2"],
    ["predict", "nonblocking-trad-docker-lost-update", "--confirm",
     "--jobs", "2"],
], ids=lambda argv: argv[0])
def test_removed_jobs_flags_are_usage_errors(argv):
    # Exploration runs one schedule at a time; neither command takes
    # --jobs.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_usage_profiles_a_package(capsys):
    from pathlib import Path

    pkg = Path(__file__).resolve().parents[1] / "src" / "repro" / "apps" / "minigrpc"
    assert main(["usage", str(pkg)]) == 0
    out = capsys.readouterr().out
    assert "goroutine creation sites" in out
    assert "Mutex" in out and "chan" in out
