"""Lock-order detector: potential deadlocks without needing the hang."""

from repro import run
from repro.detect import LockOrderDetector


def _detect(program, seed=0, **kw):
    detector = LockOrderDetector()
    result = run(program, seed=seed, observers=[detector], **kw)
    return detector, result


def serialized_ab_ba(rt):
    a = rt.mutex("A")
    b = rt.mutex("B")

    def one():
        a.lock(); b.lock()
        b.unlock(); a.unlock()

    def two():
        b.lock(); a.lock()
        a.unlock(); b.unlock()

    rt.go(one)
    rt.sleep(1.0)  # serialize: no actual deadlock this run
    rt.go(two)
    rt.sleep(1.0)


def consistent_order(rt):
    a = rt.mutex("A")
    b = rt.mutex("B")

    def worker():
        a.lock(); b.lock()
        b.unlock(); a.unlock()

    rt.go(worker)
    rt.go(worker)
    rt.sleep(1.0)


def three_lock_cycle(rt):
    locks = [rt.mutex(name) for name in "ABC"]

    def chain(first, second):
        locks[first].lock()
        locks[second].lock()
        locks[second].unlock()
        locks[first].unlock()

    for i in range(3):
        rt.go(chain, i, (i + 1) % 3)   # A->B, B->C, C->A
        rt.sleep(0.5)                   # serialized: no actual hang
    rt.sleep(0.5)


def same_lock_twice(rt):
    a = rt.mutex("A")
    a.lock()
    a.unlock()
    a.lock()
    a.unlock()


def rwmutex_inversion(rt):
    rw = rt.rwmutex("RW")
    mu = rt.mutex("M")

    def one():
        rw.lock(); mu.lock()
        mu.unlock(); rw.unlock()

    def two():
        mu.lock(); rw.lock()
        rw.unlock(); mu.unlock()

    rt.go(one)
    rt.sleep(0.5)
    rt.go(two)
    rt.sleep(0.5)


def main_goroutine_inversion(rt):
    a = rt.mutex(); b = rt.mutex()
    a.lock(); b.lock(); b.unlock(); a.unlock()
    b.lock(); a.lock(); a.unlock(); b.unlock()


#: The hand-written programs above; the offline predictor's edge rule is
#: pinned against the live detector on each of them.
PROGRAMS = (serialized_ab_ba, consistent_order, three_lock_cycle,
            same_lock_twice, rwmutex_inversion, main_goroutine_inversion)


def test_ab_ba_inversion_detected_even_when_nothing_blocks():
    """The schedule never deadlocks (the workers run one after the
    other), but the inversion is still a bug waiting for the right
    timing — and the detector sees it from the order graph alone."""
    detector, result = _detect(serialized_ab_ba)
    assert result.status == "ok"          # nothing actually hung...
    assert detector.detected              # ...but the hazard is real
    violation = detector.violations[0]
    assert len(violation.cycle) == 2
    assert "POTENTIAL DEADLOCK" in str(violation)


def test_consistent_order_is_clean():
    detector, _ = _detect(consistent_order)
    assert not detector.detected


def test_three_lock_cycle_detected():
    detector, result = _detect(three_lock_cycle)
    assert result.status == "ok"
    assert any(len(v.cycle) == 3 for v in detector.violations)


def test_nested_same_lock_not_self_edge():
    """Re-acquiring the same mutex is self-deadlock, not a cycle; the
    order graph must not record A->A."""
    detector, _ = _detect(same_lock_twice)
    assert (list(detector.edges) == [])


def test_rwmutex_write_locks_participate():
    detector, _ = _detect(rwmutex_inversion)
    assert detector.detected


def test_abba_kernel_flagged_on_every_seed():
    """The corpus AB/BA kernel is caught regardless of manifestation."""
    from repro.bugs.registry import get

    kernel = get("blocking-mutex-kubernetes-abba")
    for seed in range(6):
        detector = LockOrderDetector()
        kernel.run_buggy(seed=seed, observers=[detector])
        assert detector.detected, seed
        fixed_detector = LockOrderDetector()
        kernel.run_fixed(seed=seed, observers=[fixed_detector])
        assert not fixed_detector.detected, seed


def test_no_false_positives_on_apps():
    """The mini-apps are lock-order clean."""
    from repro.apps.minigrpc.bench import WORKLOADS

    for workload, progs in WORKLOADS.items():
        detector = LockOrderDetector()
        run(progs["go"], seed=1, observers=[detector])
        assert not detector.detected, workload


def test_finish_exposes_violations_on_result():
    detector, result = _detect(main_goroutine_inversion)
    assert result.lock_order_violations == detector.violations
