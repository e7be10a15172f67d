"""Static loop-variable capture checker (the Section 7 prototype)."""

import textwrap
from pathlib import Path

from repro.static.capture import check_paths, check_source


def _scan(code: str):
    return check_source(textwrap.dedent(code), "probe.py")


def test_flags_local_def_capturing_loop_var():
    findings = _scan(
        """
        def prog(rt):
            for i in range(5):
                def worker():
                    print(i)
                rt.go(worker)
        """
    )
    assert len(findings) == 1
    assert findings[0].obj == "i"
    assert findings[0].function == "worker"


def test_flags_lambda_capturing_loop_var():
    findings = _scan(
        """
        def prog(rt):
            for item in items:
                rt.go(lambda: handle(item))
        """
    )
    assert len(findings) == 1
    assert findings[0].obj == "item"
    assert findings[0].function == "<lambda>"


def test_default_arg_copy_is_the_fix():
    findings = _scan(
        """
        def prog(rt):
            for i in range(5):
                def worker(i=i):
                    print(i)
                rt.go(worker)
        """
    )
    assert findings == []


def test_parameter_shadowing_is_safe():
    findings = _scan(
        """
        def prog(rt):
            for i in range(5):
                def worker(i):
                    print(i)
                rt.go(worker, i)
        """
    )
    assert findings == []


def test_local_rebinding_is_safe():
    findings = _scan(
        """
        def prog(rt):
            for i in range(5):
                def worker():
                    i = 0
                    print(i)
                rt.go(worker)
        """
    )
    assert findings == []


def test_goroutine_outside_loop_is_safe():
    findings = _scan(
        """
        def prog(rt):
            i = compute()
            def worker():
                print(i)
            rt.go(worker)
        """
    )
    assert findings == []


def test_tuple_loop_targets_all_checked():
    findings = _scan(
        """
        def prog(rt):
            for k, v in table.items():
                rt.go(lambda: store(k, v))
        """
    )
    assert {f.obj for f in findings} == {"k", "v"}


def test_nested_loops_report_correct_line():
    findings = _scan(
        """
        def prog(rt):
            for outer in rows:
                for inner in outer:
                    def w():
                        use(inner)
                    rt.go(w)
        """
    )
    # inner loop flagged for `inner`; outer loop sees the same call site
    assert any(f.obj == "inner" for f in findings)


def test_path_scan(tmp_path: Path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def prog(rt):\n"
        "    for i in range(3):\n"
        "        rt.go(lambda: print(i))\n"
    )
    good = tmp_path / "good.py"
    good.write_text("def prog(rt):\n    rt.go(lambda: print(1))\n")

    findings = check_paths([tmp_path])
    assert len(findings) == 1
    assert findings[0].path.endswith("bad.py")


def test_corpus_buggy_kernels_are_flagged_and_fixed_are_not():
    """Figure 8's kernel shape, straight from the corpus source."""
    buggy = """
    def buggy(rt):
        for i in range(17, 22):
            rt.go(lambda: record(i))
    """
    fixed = """
    def fixed(rt):
        for i in range(17, 22):
            def record_one(i=i):
                record(i)
            rt.go(record_one)
    """
    assert _scan(buggy)
    assert not _scan(fixed)
