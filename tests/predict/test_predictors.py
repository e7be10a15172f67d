"""Per-rule predictor behavior on minimal programs.

Each rule gets a positive (the bug shape is predicted from a run where
nothing went wrong) and a negative (the corresponding fix idiom
suppresses the prediction).  Programs are scheduled so the recorded run
is clean — prediction, not detection, is under test.
"""

import gc

from repro import run
from repro.bugs import registry
from repro.chan import recv
from repro.predict import SyncTrace, predict, predict_lock_cycles, weak_stamps


def _rules(report):
    return {(p.family, p.rule) for p in report.predictions}


def _predict(program, seed=0, **run_kwargs):
    result = run(program, seed=seed, **run_kwargs)
    assert result.status == "ok", (
        f"test wants a clean recorded run, got {result.status}")
    return predict(result)


# ---------------------------------------------------------------------------
# race: mutex edges are relaxed, lockset discipline is respected
# ---------------------------------------------------------------------------

def test_mutex_serialized_race_is_predicted():
    # The classic predictive race: both writes happen *outside* the
    # critical section, so the recorded release->acquire edge is
    # coincidental and a reordering races.  The live HB detector is
    # blind to this in most schedules; predict is not.
    def main(rt):
        v = rt.shared("v", 0)
        mu = rt.mutex()

        def first():
            v.store(1)
            with mu:
                pass

        def second():
            rt.sleep(0.5)      # recorded run: strictly after first()
            with mu:
                pass
            v.store(2)

        rt.go(first)
        rt.go(second)
        rt.sleep(1.0)

    report = _predict(main)
    assert ("race", "data-race") in _rules(report)


def test_common_lock_suppresses_predicted_race():
    def main(rt):
        v = rt.shared("v", 0)
        mu = rt.mutex()

        def worker():
            with mu:
                v.add(1)

        rt.go(worker)
        rt.go(worker)
        rt.sleep(1.0)

    assert ("race", "data-race") not in _rules(_predict(main))


def test_channel_edge_is_kept_in_weak_closure():
    # A real hand-off: the send->recv edge orders the writes in every
    # schedule, so no race may be predicted.
    def main(rt):
        v = rt.shared("v", 0)
        ch = rt.make_chan(0)

        def producer():
            v.store(1)
            ch.send(None)

        def consumer():
            ch.recv()
            v.store(2)

        rt.go(producer)
        rt.go(consumer)
        rt.sleep(1.0)

    assert ("race", "data-race") not in _rules(_predict(main))


# ---------------------------------------------------------------------------
# lockorder: ABBA cycles with feasible witnesses
# ---------------------------------------------------------------------------

def test_abba_cycle_predicted_from_serialized_run():
    def main(rt):
        a, b = rt.mutex("A"), rt.mutex("B")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            rt.sleep(0.5)      # serialized: the run itself cannot deadlock
            with b:
                with a:
                    pass

        rt.go(forward)
        rt.go(backward)
        rt.sleep(1.0)

    report = _predict(main)
    assert ("lockorder", "lock-cycle") in _rules(report)


def test_same_goroutine_inversion_is_not_a_cycle():
    def main(rt):
        a, b = rt.mutex("A"), rt.mutex("B")

        def worker():
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass

        rt.go(worker)
        rt.sleep(1.0)

    assert ("lockorder", "lock-cycle") not in _rules(_predict(main))


def test_lock_cycle_prediction_leaves_no_cyclic_garbage():
    """The witness search recurses at module level: a self-recursive
    closure would leave a function <-> cell cycle behind on every call."""
    kernel = registry.get("blocking-mutex-kubernetes-abba")
    trace = SyncTrace.from_result(kernel.run_buggy(seed=0))
    stamps = weak_stamps(trace)
    gc.collect()
    gc.disable()
    try:
        assert predict_lock_cycles(trace, stamps)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# comm: send-on-closed
# ---------------------------------------------------------------------------

def test_unordered_send_and_close_predicted():
    def main(rt):
        ch = rt.make_chan(1)
        wg = rt.waitgroup()
        wg.add(2)

        def sender():
            ch.send("frame")
            wg.done()

        def closer():
            rt.sleep(0.5)       # after the send in this schedule only
            ch.close()
            wg.done()

        rt.go(sender)
        rt.go(closer)
        wg.wait()

    report = _predict(main)
    assert ("comm", "send-on-closed") in _rules(report)


# ---------------------------------------------------------------------------
# comm: double-close behind a select-default guard (Figure 10)
# ---------------------------------------------------------------------------

def _teardown_program(rt, use_once):
    closed = rt.make_chan(0, name="c.closed")
    once = rt.once("close-once")
    wg = rt.waitgroup()

    def teardown():
        index, _v, _ok = rt.select(recv(closed), default=True)
        if index == -1:
            if use_once:
                once.do(closed.close)
            else:
                closed.close()
        wg.done()

    for i in range(3):
        wg.add(1)
        rt.go(teardown, name=f"teardown-{i}")
    wg.wait()


def test_guarded_double_close_predicted():
    report = _predict(lambda rt: _teardown_program(rt, use_once=False))
    assert ("comm", "double-close") in _rules(report)


def test_once_wrapped_close_suppresses_prediction():
    report = _predict(lambda rt: _teardown_program(rt, use_once=True))
    assert ("comm", "double-close") not in _rules(report)


# ---------------------------------------------------------------------------
# comm: abandoned sender behind a multi-case select (Figure 1)
# ---------------------------------------------------------------------------

def _finishreq_program(rt, capacity):
    ch = rt.make_chan(capacity, name="ch")

    def handler():
        rt.sleep(0.5)
        ch.send("response")

    rt.go(handler, name="handler")
    timer = rt.new_timer(1.0)
    rt.sleep(1.5)               # both cases ready at the select
    rt.select(recv(ch), recv(timer.c))


def test_abandoned_sender_predicted_when_unbuffered():
    # Find a seed whose select commits the ch case (a passing run).
    for seed in range(20):
        result = run(lambda rt: _finishreq_program(rt, 0), seed=seed)
        if result.status == "ok" and not result.leaked:
            report = predict(result)
            assert ("comm", "abandoned-sender") in _rules(report)
            return
    raise AssertionError("no passing schedule found in 20 seeds")


def test_buffered_channel_suppresses_abandoned_sender():
    for seed in range(20):
        result = run(lambda rt: _finishreq_program(rt, 1), seed=seed)
        assert result.status == "ok" and not result.leaked
        report = predict(result)
        assert ("comm", "abandoned-sender") not in _rules(report)


# ---------------------------------------------------------------------------
# comm: lost signal and the predicate-loop fix
# ---------------------------------------------------------------------------

def _cond_program(rt, use_predicate_loop):
    mu = rt.mutex()
    cond = rt.cond(mu)
    ready = rt.shared("ready", False)

    def waiter():
        with mu:
            if use_predicate_loop:
                while not ready.load():
                    cond.wait()
            else:
                cond.wait()

    def signaler():
        with mu:
            ready.store(True)
            cond.signal()

    rt.go(waiter, name="waiter")
    rt.sleep(0.5)               # waiter parks first: the run is clean
    rt.go(signaler, name="signaler")
    rt.sleep(1.0)


def test_lost_signal_predicted_without_predicate_loop():
    report = _predict(lambda rt: _cond_program(rt, False))
    assert ("comm", "lost-signal") in _rules(report)


def test_predicate_loop_suppresses_lost_signal():
    report = _predict(lambda rt: _cond_program(rt, True))
    assert ("comm", "lost-signal") not in _rules(report)


# ---------------------------------------------------------------------------
# comm: WaitGroup Add/Wait race (Figure 9)
# ---------------------------------------------------------------------------

def test_add_inside_child_predicted():
    def main(rt):
        wg = rt.waitgroup()
        wg.add(1)               # for the launcher itself

        def child():
            wg.add(1)           # BUG: Add races the parent's Wait
            wg.done()

        def launcher():
            rt.go(child)
            wg.done()

        rt.go(launcher)
        rt.sleep(0.5)
        wg.wait()

    report = _predict(main)
    assert ("comm", "wg-add-wait-race") in _rules(report)


def test_add_before_go_is_ordered():
    def main(rt):
        wg = rt.waitgroup()

        def child():
            wg.done()

        wg.add(1)
        rt.go(child)
        wg.wait()

    assert ("comm", "wg-add-wait-race") not in _rules(_predict(main))


# ---------------------------------------------------------------------------
# observed predictions ride along
# ---------------------------------------------------------------------------

def test_stuck_goroutine_reported_from_leaky_run():
    def main(rt):
        ch = rt.make_chan(0)
        rt.go(lambda: ch.recv(), name="forgotten")
        rt.sleep(0.5)

    result = run(main, seed=0)
    assert result.leaked
    report = predict(result)
    assert ("blocking", "stuck-goroutine") in _rules(report)
