"""Race detector: true positives, HB-edge suppression, shadow words."""

from repro import run
from repro.detect import RaceDetector


def _detect(program, seeds=range(15), **detector_kwargs):
    hits = 0
    for seed in seeds:
        det = RaceDetector(**detector_kwargs)
        run(program, seed=seed, observers=[det])
        hits += det.detected
    return hits


def test_unsynchronized_write_write_race_detected():
    def main(rt):
        v = rt.shared("v", 0)
        rt.go(lambda: v.store(1))
        rt.go(lambda: v.store(2))
        rt.sleep(0.1)

    assert _detect(main) == 15


def test_read_write_race_detected():
    def main(rt):
        v = rt.shared("v", 0)
        rt.go(lambda: v.store(1))
        rt.go(lambda: v.load())
        rt.sleep(0.1)

    assert _detect(main) == 15


def test_read_read_is_not_a_race():
    def main(rt):
        v = rt.shared("v", 0)
        rt.go(lambda: v.load())
        rt.go(lambda: v.load())
        rt.sleep(0.1)

    assert _detect(main) == 0


def test_mutex_discipline_suppresses_report():
    def main(rt):
        v = rt.shared("v", 0)
        mu = rt.mutex()

        def worker():
            with mu:
                v.add(1)

        rt.go(worker)
        rt.go(worker)
        rt.sleep(0.1)

    assert _detect(main) == 0


def test_rwmutex_discipline_suppresses_report():
    def main(rt):
        v = rt.shared("v", 0)
        mu = rt.rwmutex()

        def writer():
            mu.lock()
            v.store(1)
            mu.unlock()

        def reader():
            mu.rlock()
            v.load()
            mu.runlock()

        rt.go(writer)
        rt.go(reader)
        rt.sleep(0.1)

    assert _detect(main) == 0


def test_unbuffered_channel_synchronizes_both_ways():
    def main(rt):
        v = rt.shared("v", 0)
        ch = rt.make_chan()

        def worker():
            v.store(1)
            ch.send(None)   # release to the receiver
            v.load()        # ordered after main's read (rendezvous)

        rt.go(worker)
        ch.recv()
        v.load()

    assert _detect(main) == 0


def test_goroutine_creation_orders_parent_prefix():
    def main(rt):
        v = rt.shared("v", 0)
        v.store(1)          # before go: ordered with the child
        rt.go(lambda: v.load())
        rt.sleep(0.1)

    assert _detect(main) == 0


def test_waitgroup_done_wait_edge():
    def main(rt):
        v = rt.shared("v", 0)
        wg = rt.waitgroup()
        wg.add(1)

        def worker():
            v.store(1)
            wg.done()

        rt.go(worker)
        wg.wait()
        v.load()

    assert _detect(main) == 0


def test_once_edge():
    def main(rt):
        v = rt.shared("v", None)
        once = rt.once()

        def user():
            once.do(lambda: v.store("ready"))
            v.load()

        rt.go(user)
        rt.go(user)
        rt.sleep(0.5)

    assert _detect(main) == 0


def test_atomic_flag_is_not_itself_a_race_but_gives_order():
    def main(rt):
        flag = rt.atomic_int(0)
        rt.go(lambda: flag.store(1))
        rt.go(lambda: flag.load())
        rt.sleep(0.1)

    assert _detect(main) == 0


def test_close_recv_edge():
    def main(rt):
        v = rt.shared("v", 0)
        done = rt.make_chan()

        def producer():
            v.store(42)
            done.close()

        rt.go(producer)
        done.recv_ok()
        v.load()

    assert _detect(main) == 0


def test_shadow_word_eviction_hides_old_access():
    """Six same-goroutine reads push the racy write out of a 4-word
    shadow; unlimited history still reports it (the Table 12 ablation)."""

    def main(rt):
        v = rt.shared("v", 0)

        def writer():
            v.store(1)
            for _ in range(6):
                v.load()

        def reader():
            rt.sleep(0.5)  # strictly after the writer's burst
            v.load()

        rt.go(writer)
        rt.go(reader)
        rt.sleep(1.0)

    assert _detect(main, seeds=range(10), shadow_words=4) == 0
    assert _detect(main, seeds=range(10), shadow_words=None) == 10


def test_report_contents():
    def main(rt):
        v = rt.shared("refcount", 0)
        rt.go(lambda: v.store(1))
        rt.go(lambda: v.store(2))
        rt.sleep(0.1)

    det = RaceDetector()
    result = run(main, seed=0, observers=[det])
    assert det.reports, "expected a race report"
    report = det.reports[0]
    assert report.var_name == "refcount"
    assert report.first.gid != report.second.gid
    assert {report.first.kind, report.second.kind} <= {"read", "write"}
    assert "DATA RACE" in str(report)
    # finish() exposed the reports on the result object too.
    assert result.races == det.reports


def test_max_reports_per_var_caps_noise():
    def main(rt):
        v = rt.shared("v", 0)

        def writer():
            for _ in range(5):
                v.store(1)

        rt.go(writer)
        rt.go(writer)
        rt.sleep(0.5)

    det = RaceDetector(max_reports_per_var=1)
    run(main, seed=1, observers=[det])
    assert len(det.reports) <= 1


def test_reused_detector_reports_only_the_attached_run():
    """A detector attached to a second run (``explore_systematic`` hands
    one observer list to every run it explores) reports that run alone:
    its clocks, shadow words and report caps start afresh."""

    def racy(rt):
        v = rt.shared("v", 0)
        rt.go(lambda: v.store(1))
        rt.go(lambda: v.store(2))
        rt.sleep(0.1)

    def ordered(rt):
        v = rt.shared("v", 0)
        v.store(1)
        rt.go(lambda: v.load())
        rt.sleep(0.1)

    for programs in ((racy, ordered), (ordered, racy), (racy, racy)):
        reused = RaceDetector()
        for seed, program in enumerate(programs):
            fresh = RaceDetector()
            result = run(program, seed=seed, observers=[reused, fresh])
            assert reused.reports == fresh.reports
            assert result.races == fresh.reports
            assert reused.final_clocks() == fresh.final_clocks()
