"""Whole runs with the compiled drive loop and RNG vs the pure runtime.

``repro.runtime._ext._hotloop`` drives tasklet runs in C, traced or
not, and draws the scheduling RNG from a C MT19937.  Channels, select and
the sync primitives have one implementation, in Python, so these tests
pin the only thing the extension may not change — the run itself:

* traceless runs take byte-for-byte the same schedules — steps,
  statuses, results, RNG draws — as the same seeds under
  :class:`repro.runtime._hotloop.force_pure`;
* traced runs take the compiled loop too, and their kept event logs —
  every event's step, time, goroutine, kind, object and details — equal
  the pure loop's, over the whole corpus, the heavy workloads and a
  panicking program;
* so do pick logs, record for record, traced or not, select markers
  included;
* a kept trace, attached race and lock-order detectors or an injector
  with an empty plan leave the schedule unchanged;
* faulted runs drive the compiled loop between the injector's due steps,
  and every mini-app under the default suite and both recovery clusters
  under both crash plans replay the pure loop's statuses, steps, fault
  records and digests;
* timers fire inside the compiled loop with the pure loop's event log
  and end time: across a ``time_limit``, from a raising callback, with a
  callback cancelling a sibling, through ``Timer``/``Ticker``/
  ``with_timeout`` and over random timer programs; an untraced load run
  enters drive at most a few times, and a faulted run leaves it at idle
  only at the injector's clock horizons;
* explored runs (a scripted RNG, which drive calls once per pick) keep
  the pure loop's choice log, clamp divergences, pick log and trace
  records, clamped prefixes included, and take every step inside drive;
  the RNG sees the pure loop's ``_steps`` and no current goroutine; a
  draw that raises, a draw of ``n`` and a draw of ``-1`` behave as
  ``runnable[idx]`` in the pure loop does;
* drive raises ``TypeError`` for a scheduler it cannot read instead of
  handing the run to the pure loop, and both loops reject an unknown
  stop mode with ``ValueError``;
* error paths (send on closed, unlock of unlocked, select on a closed
  send case) panic identically in both modes;
* a ``REPRO_NO_CEXT=1`` subprocess — no extension at all — reproduces
  the compiled process's digests and step counts;
* the whole corpus, the mini-apps, and a crash-recovery cluster replay
  identically compiled vs pure.

Where the extension didn't build, the compiled-only test skips and the
parity tests still pass trivially (pure vs pure).
"""

import json
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import deque
from contextlib import nullcontext
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro import run
from tests.workloads import WORKLOADS
from repro.detect import LockOrderDetector, RaceDetector
from repro.inject import Fault, FaultPlan
from repro.parallel import schedule_digest
from repro.runtime._hotloop import force_pure, get_drive
from repro.runtime.scheduler import Scheduler, resolve_backend

needs_drive_loop = pytest.mark.skipif(
    get_drive() is None or resolve_backend("coroutine") != "tasklet",
    reason="compiled drive loop unavailable on this host")


# ---------------------------------------------------------------------------
# Long channel, select and mutex programs: per-run fixed costs (spawn,
# teardown) vanish next to the primitive operations themselves.
# ---------------------------------------------------------------------------


def pingpong_heavy(rt) -> None:
    """Unbuffered rendezvous: 1000 round trips between two goroutines."""
    ping = rt.make_chan()
    pong = rt.make_chan()

    def echo():
        for _ in range(1000):
            ping.recv()
            pong.send(None)

    rt.go(echo)
    for _ in range(1000):
        ping.send(None)
        pong.recv()


def select_fanin_heavy(rt) -> None:
    """Four feeders x 250 sends fanning into one select loop."""
    from repro.chan import recv as recv_case

    channels = [rt.make_chan(1) for _ in range(4)]

    def feeder(ch):
        for i in range(250):
            ch.send(i)

    for ch in channels:
        rt.go(feeder, ch)
    cases = [recv_case(ch) for ch in channels]
    for _ in range(1000):
        rt.select(*cases)


def mutex_heavy(rt) -> None:
    """Four workers taking one mutex 500 times each."""
    mu = rt.mutex()
    done = rt.waitgroup()

    def worker():
        for _ in range(500):
            with mu:
                pass
        done.done()

    for _ in range(4):
        done.add(1)
        rt.go(worker)
    done.wait()


HEAVY_WORKLOADS = {
    "pingpong_heavy": pingpong_heavy,
    "select_fanin_heavy": select_fanin_heavy,
    "mutex_heavy": mutex_heavy,
}

ALL_WORKLOADS = {**WORKLOADS, **HEAVY_WORKLOADS}


def _signature(result):
    return result.status, result.steps, result.main_result


def _corpus_kernels():
    from repro.bugs import registry

    return sorted(registry.all_kernels(), key=lambda k: k.meta.kernel_id)


# ---------------------------------------------------------------------------
# Compiled vs forced-pure parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_traceless_run_matches_forced_pure(workload, seed):
    program = ALL_WORKLOADS[workload]
    compiled = run(program, seed=seed, keep_trace=False)
    with force_pure():
        pure = run(program, seed=seed, keep_trace=False)
    assert _signature(compiled) == _signature(pure)


@needs_drive_loop
@pytest.mark.parametrize("workload", sorted(HEAVY_WORKLOADS))
def test_forced_pure_run_reports_compiled_false(workload):
    compiled = run(ALL_WORKLOADS[workload], seed=1, keep_trace=False)
    assert compiled.compiled is True
    with force_pure():
        pure = run(ALL_WORKLOADS[workload], seed=1, keep_trace=False)
    assert pure.compiled is False


@pytest.mark.parametrize("workload", sorted(HEAVY_WORKLOADS))
def test_traced_digest_identical_compiled_process_vs_forced_pure(workload):
    program = HEAVY_WORKLOADS[workload]
    traced = run(program, seed=5, keep_trace=True)
    with force_pure():
        reference = run(program, seed=5, keep_trace=True)
    assert schedule_digest(traced) == schedule_digest(reference)
    assert traced.steps == reference.steps


# ---------------------------------------------------------------------------
# Traced runs on the compiled loop: the kept event log, event for event
# ---------------------------------------------------------------------------


def _event_log(result):
    return [(e.step, e.time, e.gid, e.kind, e.obj, e.info)
            for e in result.trace]


def _assert_same_event_log(program, seed, **kwargs):
    compiled = run(program, seed=seed, keep_trace=True, **kwargs)
    with force_pure():
        pure = run(program, seed=seed, keep_trace=True, **kwargs)
    assert _signature(compiled) == _signature(pure)
    assert _event_log(compiled) == _event_log(pure)
    return compiled


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_event_log_compiled_vs_pure(kernel, variant, seed):
    _assert_same_event_log(getattr(kernel, variant), seed,
                           **kernel.run_kwargs)


@pytest.mark.parametrize("workload", sorted(HEAVY_WORKLOADS))
def test_heavy_event_log_compiled_vs_pure(workload):
    _assert_same_event_log(HEAVY_WORKLOADS[workload], 5)


def test_panic_event_log_compiled_vs_pure():
    """A goroutine panics mid-run: its ``go.panic`` event and the stop
    that follows come from ``_after_resume`` called out of drive."""
    def program(rt):
        ch = rt.make_chan()

        def crash():
            ch.send(1)
            rt.panic("worker failed")

        rt.go(crash)
        ch.recv()
        rt.sleep(1.0)

    result = _assert_same_event_log(program, 1)
    assert result.status == "panic"
    assert [e.kind for e in result.trace][-1] == "go.panic"


@needs_drive_loop
def test_traced_run_enters_the_compiled_loop():
    """A kept trace does not select the pure loop: the run's steps are
    taken in drive calls, each returning a verdict."""
    verdicts = []

    class DriveCounter:
        def attach(self, rt):
            sched = rt.sched
            drive = sched._hot

            def counted(s):
                verdict = drive(s)
                verdicts.append(verdict)
                return verdict

            sched._hot = counted

    result = run(HEAVY_WORKLOADS["pingpong_heavy"], seed=1,
                 keep_trace=True, observers=[DriveCounter()])
    assert result.status == "ok"
    assert [v for v in verdicts if v is not None]
    assert None not in verdicts


# ---------------------------------------------------------------------------
# The pick log: the compiled loop writes the pure loop's records
# ---------------------------------------------------------------------------


class _PickLogReader:
    """Asks for the run's pick log and keeps it as plain values."""

    def attach(self, rt):
        self._log = rt.sched.record_picks()

    def finish(self, result):
        self.picks = [
            None if pick is None
            else (pick[0], tuple(g.gid for g in pick[1]), pick[2])
            for pick in self._log]


def _assert_same_pick_log(program, seed, **kwargs):
    logs = []
    for pure in (False, True):
        reader = _PickLogReader()
        if pure:
            with force_pure():
                result = run(program, seed=seed, observers=[reader], **kwargs)
        else:
            result = run(program, seed=seed, observers=[reader], **kwargs)
        logs.append((_signature(result), reader.picks))
    assert logs[0] == logs[1]
    (_status, steps, _main), picks = logs[0]
    assert [pick[0] for pick in picks if pick is not None] \
        == list(range(1, steps + 1))
    return picks


@pytest.mark.parametrize("keep_trace", [False, True])
@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_pick_log_compiled_vs_pure(workload, keep_trace):
    picks = _assert_same_pick_log(ALL_WORKLOADS[workload], 3,
                                  keep_trace=keep_trace)
    # Select draws share the RNG and leave a marker in the log.
    assert (None in picks) == workload.startswith("select")


@pytest.mark.parametrize("variant", ["buggy", "fixed"])
@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_pick_log_compiled_vs_pure(kernel, variant):
    _assert_same_pick_log(getattr(kernel, variant), 0, **kernel.run_kwargs)


# ---------------------------------------------------------------------------
# Inertness: kept traces, detectors and injectors leave the schedule alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(HEAVY_WORKLOADS))
def test_kept_trace_does_not_change_the_schedule(workload):
    program = HEAVY_WORKLOADS[workload]
    traced = run(program, seed=1, keep_trace=True)
    plain = run(program, seed=1, keep_trace=False)
    assert traced.status == "ok"
    assert _signature(traced) == _signature(plain)


@pytest.mark.parametrize("workload", sorted(HEAVY_WORKLOADS))
def test_attached_detectors_do_not_change_the_schedule(workload):
    """keep_trace=False but race and lock-order detectors attached, which
    keep the run's records: the observed run must still match the
    unobserved run."""
    race, lockorder = RaceDetector(), LockOrderDetector()
    program = HEAVY_WORKLOADS[workload]
    detected = run(program, seed=1, keep_trace=False,
                   observers=[race, lockorder])
    assert race.final_clocks(), "race detector replayed no events"
    plain = run(program, seed=1, keep_trace=False)
    assert _signature(detected) == _signature(plain)


@pytest.mark.parametrize("workload", sorted(HEAVY_WORKLOADS))
def test_fault_injector_does_not_change_the_schedule(workload):
    """An attached injector with no faults hooks every probe point and
    must leave the schedule exactly as the uninjected run's."""
    program = HEAVY_WORKLOADS[workload]
    injected = run(program, seed=1, keep_trace=False,
                   inject=FaultPlan(name="noop"))
    plain = run(program, seed=1, keep_trace=False)
    assert _signature(injected) == _signature(plain)


# ---------------------------------------------------------------------------
# Error and edge paths, compiled vs pure
# ---------------------------------------------------------------------------


def _both_modes(program, seed=1):
    compiled = run(program, seed=seed, keep_trace=False)
    with force_pure():
        pure = run(program, seed=seed, keep_trace=False)
    return compiled, pure


def test_send_on_closed_channel_panics_identically():
    def program(rt):
        ch = rt.make_chan(1)
        ch.close()
        ch.send(1)

    compiled, pure = _both_modes(program)
    assert compiled.status == pure.status == "panic"
    assert str(compiled.panic_value) == str(pure.panic_value)
    assert compiled.steps == pure.steps


def test_recv_on_closed_channel_zero_value_identically():
    def program(rt):
        ch = rt.make_chan(2)
        ch.send("a")
        ch.close()
        return [ch.recv_ok(), ch.recv_ok(), ch.recv_ok()]

    compiled, pure = _both_modes(program)
    assert _signature(compiled) == _signature(pure)
    assert compiled.main_result == [("a", True), (None, False), (None, False)]


def test_buffered_try_ops_identically():
    def program(rt):
        ch = rt.make_chan(2)
        outcomes = [ch.try_send(1), ch.try_send(2), ch.try_send(3)]
        outcomes.append(ch.try_recv())
        outcomes.append(ch.try_recv())
        outcomes.append(ch.try_recv())
        ch.close()
        outcomes.append(ch.try_recv())
        return outcomes

    compiled, pure = _both_modes(program)
    assert _signature(compiled) == _signature(pure)
    assert compiled.main_result == [
        True, True, False,
        (1, True, True), (2, True, True), (None, False, False),
        (None, False, True),
    ]


def test_select_default_and_single_case_draw_identically():
    """A one-ready-case select still consumes one RNG draw (randrange(1)
    eats a Mersenne word), so later scheduling decisions shift if either
    implementation skips it — the trailing spawn fan-out would diverge."""
    from repro.chan import recv as recv_case

    def program(rt):
        ch = rt.make_chan(1)
        hits = [rt.select(recv_case(ch), default=True)]
        ch.send("x")
        hits.append(rt.select(recv_case(ch)))
        wg = rt.waitgroup()
        for _ in range(6):
            wg.add(1)
            rt.go(wg.done)
        wg.wait()
        return hits

    compiled, pure = _both_modes(program)
    assert _signature(compiled) == _signature(pure)
    assert compiled.main_result[0] == (-1, None, False)
    assert compiled.main_result[1] == (0, "x", True)


def test_select_send_on_closed_case_panics_identically():
    from repro.chan import send as send_case

    def program(rt):
        ch = rt.make_chan(1)
        ch.close()
        rt.select(send_case(ch, 1))

    compiled, pure = _both_modes(program)
    assert compiled.status == pure.status == "panic"
    assert str(compiled.panic_value) == str(pure.panic_value)
    assert compiled.steps == pure.steps


def test_unlock_of_unlocked_mutex_panics_identically():
    def program(rt):
        rt.mutex().unlock()

    compiled, pure = _both_modes(program)
    assert compiled.status == pure.status == "panic"
    assert str(compiled.panic_value) == str(pure.panic_value)


def test_rwmutex_paths_identically():
    def program(rt):
        rw = rt.rwmutex()
        log = []
        done = rt.make_chan()

        def reader(tag):
            rw.rlock()
            log.append(("r+", tag))
            rt.gosched()
            log.append(("r-", tag))
            rw.runlock()
            done.send(None)

        def writer():
            rw.lock()
            log.append("w")
            rw.unlock()
            done.send(None)

        rt.go(reader, 1)
        rt.go(reader, 2)
        rt.go(writer)
        for _ in range(3):
            done.recv()
        return log

    compiled, pure = _both_modes(program)
    assert _signature(compiled) == _signature(pure)


def test_runlock_without_rlock_panics_identically():
    def program(rt):
        rt.rwmutex().runlock()

    compiled, pure = _both_modes(program)
    assert compiled.status == pure.status == "panic"
    assert str(compiled.panic_value) == str(pure.panic_value)


# ---------------------------------------------------------------------------
# REPRO_NO_CEXT subprocess: no extension at all, same bytes
# ---------------------------------------------------------------------------


_SUBPROCESS_SCRIPT = textwrap.dedent("""
    import json
    from repro import run
    from tests.workloads import WORKLOADS
    from repro.parallel import schedule_digest
    from repro.runtime import _hotloop

    rows = {}
    for name in sorted(WORKLOADS):
        traced = run(WORKLOADS[name], seed=11, keep_trace=True)
        fast = run(WORKLOADS[name], seed=11, keep_trace=False)
        rows[name] = {
            "digest": schedule_digest(traced),
            "status": fast.status,
            "steps": fast.steps,
            "compiled_field": fast.compiled,
        }
    print(json.dumps({"compiled": _hotloop.HAS_COMPILED, "rows": rows}))
""")


def test_no_cext_subprocess_matches_compiled_process():
    env = dict(os.environ, REPRO_NO_CEXT="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["compiled"] is False
    for name, row in payload["rows"].items():
        assert row["compiled_field"] is False, name
        traced = run(WORKLOADS[name], seed=11, keep_trace=True)
        fast = run(WORKLOADS[name], seed=11, keep_trace=False)
        assert row["digest"] == schedule_digest(traced), name
        assert row["status"] == fast.status, name
        assert row["steps"] == fast.steps, name


# ---------------------------------------------------------------------------
# Corpus, mini-apps, recovery: compiled vs pure over everything
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", _corpus_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_corpus_kernel_parity_compiled_vs_pure(kernel):
    """Every bug kernel, both variants: compiled process vs force_pure."""
    for variant in (kernel.buggy, kernel.fixed):
        kwargs = dict(kernel.run_kwargs)
        kwargs["keep_trace"] = False
        compiled = run(variant, seed=3, **kwargs)
        with force_pure():
            pure = run(variant, seed=3, **kwargs)
        assert compiled.status == pure.status
        assert compiled.steps == pure.steps
        assert compiled.main_result == pure.main_result
        kwargs["keep_trace"] = True
        traced = run(variant, seed=3, **kwargs)
        with force_pure():
            traced_pure = run(variant, seed=3, **kwargs)
        assert schedule_digest(traced) == schedule_digest(traced_pure)


def _app_scenarios():
    from repro.inject import scenarios

    return sorted(scenarios.all_scenarios(), key=lambda row: row[0])


@pytest.mark.parametrize("scenario", _app_scenarios(),
                         ids=lambda row: row[0])
def test_miniapp_parity_compiled_vs_pure(scenario):
    _, program, base_kwargs = scenario
    kwargs = dict(base_kwargs)
    kwargs["keep_trace"] = True
    traced = run(program, seed=1, **kwargs)
    with force_pure():
        pure = run(program, seed=1, **kwargs)
    assert traced.status == pure.status
    assert traced.steps == pure.steps
    assert schedule_digest(traced) == schedule_digest(pure)


def test_net_recovery_scenario_parity_compiled_vs_pure():
    from repro.inject import plans
    from repro.inject.scenarios import net_etcd_recovery_scenario

    program = partial(net_etcd_recovery_scenario, size=3)
    kwargs = dict(seed=2, keep_trace=True,
                  inject=plans.crash_restart(delay=0.3), max_steps=600_000)
    compiled = run(program, **kwargs)
    with force_pure():
        pure = run(program, **kwargs)
    assert compiled.status == pure.status
    assert compiled.steps == pure.steps
    assert schedule_digest(compiled) == schedule_digest(pure)


# ---------------------------------------------------------------------------
# Faulted runs: the compiled loop between due steps vs the pure loop
# ---------------------------------------------------------------------------


def _chaos_cells():
    """The ledger's chaos grid, faulted cells only (baselines are the
    mini-app parity test above)."""
    from tests.ledger import chaos_grid

    return [cell for cell in chaos_grid() if cell[3] is not None]


def _faulted_signature(result):
    return (result.status, result.steps, result.main_result,
            [record.to_dict() for record in result.injected],
            schedule_digest(result))


@pytest.mark.parametrize("cell", _chaos_cells(),
                         ids=lambda cell: f"{cell[0]}-{cell[3].name}")
def test_faulted_run_parity_compiled_vs_pure(cell):
    _, program, kwargs, plan = cell
    for seed in (2, 3):
        compiled = run(program, seed=seed, inject=plan, keep_trace=True,
                       **kwargs)
        with force_pure():
            pure = run(program, seed=seed, inject=plan, keep_trace=True,
                       **kwargs)
        assert _faulted_signature(compiled) == _faulted_signature(pure)


@needs_drive_loop
def test_crash_restart_run_takes_its_steps_inside_drive():
    """A faulted run leaves the compiled loop only where a fault is due:
    a crash-restart recovery run takes nearly every step inside drive,
    and its fault log and schedule match the pure loop's."""
    from repro.inject import plans
    from repro.inject.scenarios import net_etcd_recovery_scenario

    drives = []
    in_drive = []

    class DriveCounter:
        def attach(self, rt):
            sched = rt.sched
            hot = sched._hot
            assert hot is not None

            def counted(s):
                before = s.steps
                drives.append(hot(s))
                in_drive.append(s.steps - before)
                return drives[-1]
            sched._hot = counted

    kwargs = dict(seed=0, keep_trace=True, inject=plans.crash_restart(),
                  max_steps=600_000)
    result = run(net_etcd_recovery_scenario, observers=[DriveCounter()],
                 **kwargs)
    assert result.main_result["verdict"] == "recovered"
    assert [record.action for record in result.injected] == ["crash_restart"]
    assert drives and None not in drives, "the injector forced the pure loop"
    assert sum(in_drive) >= 0.9 * result.steps
    with force_pure():
        pure = run(net_etcd_recovery_scenario, **kwargs)
    assert _faulted_signature(result) == _faulted_signature(pure)


# ---------------------------------------------------------------------------
# Timers: the compiled loop fires them itself when nothing is runnable
# ---------------------------------------------------------------------------


def _timer_signature(result):
    return (_signature(result), result.end_time, _event_log(result))


def _assert_same_timer_run(program, seed=1, **kwargs):
    compiled = run(program, seed=seed, keep_trace=True, **kwargs)
    with force_pure():
        pure = run(program, seed=seed, keep_trace=True, **kwargs)
    assert _timer_signature(compiled) == _timer_signature(pure)
    return compiled


class _DriveCounter:
    """Keeps one entry per drive call: the horizon it ran with, its
    verdict, the clock it left and the earliest live deadline then."""

    def __init__(self):
        self.entries = []

    @property
    def verdicts(self):
        return [verdict for _horizon, verdict, *_ in self.entries]

    def attach(self, rt):
        self.sched = rt.sched
        hot = rt.sched._hot
        if hot is None:
            return

        def counted(sched):
            horizon = sched._horizon
            verdict = hot(sched)
            live = [timer[0] for timer in sched.clock._heap
                    if timer[2] is not None]
            self.entries.append((horizon, verdict, sched.clock.now,
                                 min(live, default=None)))
            return verdict

        rt.sched._hot = counted


def _heartbeat(rt):
    """A background heartbeat and a main that sleeps past the window."""
    def beat():
        while True:
            rt.sleep(0.3)

    rt.go(beat)
    for _ in range(10):
        rt.sleep(1.0)


@pytest.mark.parametrize("limit", [2.5, 3.0, 3.05])
def test_timer_fire_crossing_the_time_limit(limit):
    result = _assert_same_timer_run(_heartbeat, time_limit=limit)
    assert result.status == "timeout"
    assert result.end_time >= limit


def test_raising_timer_callback_identically():
    """A callback that raises escapes the run from inside drive with the
    same exception and the same counters as the pure loop's."""
    def program(rt):
        def boom():
            raise RuntimeError("timer callback failed")

        rt.sched.clock.call_after(0.5, boom)
        for _ in range(3):
            rt.sleep(0.2)

    seen = []
    for pure in (False, True):
        counter = _DriveCounter()
        with (force_pure() if pure else nullcontext()):
            with pytest.raises(RuntimeError, match="timer callback failed"):
                run(program, seed=2, keep_trace=False, observers=[counter])
        sched = counter.sched
        seen.append((sched.steps, sched._budget_used, sched.clock.now))
    assert seen[0] == seen[1]


def test_callback_cancelling_a_timer_due_at_the_same_deadline():
    """Every timer due at one deadline is marked fired before any callback
    runs, so cancelling a sibling from a callback fails and it fires."""
    def program(rt):
        clock, log = rt.sched.clock, []
        sibling = []
        clock.call_after(1.0, lambda: log.append(("cancel", sibling[0].cancel())))
        sibling.append(clock.call_after(1.0, lambda: log.append("sibling")))
        later = clock.call_after(2.0, lambda: log.append("later"))
        clock.call_after(1.0, lambda: log.append(("cancel later", later.cancel())))
        rt.sleep(3.0)
        return log

    result = _assert_same_timer_run(program)
    assert result.main_result == [("cancel", False), "sibling",
                                  ("cancel later", True)]


def test_timer_stop_reset_ticker_and_timeout_identically():
    from repro.chan import recv as recv_case

    def program(rt):
        log = []
        timer = rt.new_timer(1.0)
        log.append(("stop", timer.stop(), rt.now()))
        log.append(("reset", timer.reset(0.5), rt.now()))
        log.append(("fired", timer.c.recv(), rt.now()))
        log.append(("reset fired", timer.reset(0.25)))
        ticker = rt.new_ticker(0.2)
        for _ in range(3):
            log.append(("tick", ticker.c.recv()))
        ticker.reset(0.5)
        log.append(("tick after reset", ticker.c.recv()))
        ticker.stop()
        ctx, cancel = rt.with_timeout(rt.background(), 0.7)
        index, _, _ = rt.select(recv_case(ctx.done()),
                                recv_case(rt.after(2.0)))
        log.append(("timeout", index, str(ctx.err()), rt.now()))
        ctx2, cancel2 = rt.with_timeout(rt.background(), 5.0)
        cancel2()
        rt.sleep(6.0)
        log.append(("cancelled", str(ctx2.err()), rt.now()))
        cancel()
        return log

    result = _assert_same_timer_run(program)
    assert result.status == "ok"
    assert result.main_result[0] == ("stop", True, 0.0)
    assert result.main_result[2] == ("fired", 0.5, 0.5)


@st.composite
def _timer_programs(draw):
    """Goroutines that arm, stop, reset and wait on timers, plus raw clock
    callbacks that record their own firing and cancel one another."""
    op = st.tuples(st.sampled_from(("sleep", "timer", "stop", "reset",
                                    "wait", "callback", "cancel")),
                   st.integers(0, 5))
    return (draw(st.lists(st.lists(op, min_size=1, max_size=6),
                          min_size=1, max_size=4)),
            draw(st.sampled_from((None, 0.75, 1.5))))


def _run_timer_program(goroutines, rt):
    from repro.chan import recv as recv_case

    clock, fired = rt.sched.clock, []
    handles = []

    def body(label, ops):
        timers = []
        for name, k in ops:
            delay = k * 0.25
            if name == "sleep":
                rt.sleep(delay)
            elif name == "timer":
                timers.append(rt.new_timer(delay))
            elif name == "stop" and timers:
                fired.append((label, "stop", timers[k % len(timers)].stop()))
            elif name == "reset" and timers:
                fired.append((label, "reset", timers[-1].reset(delay)))
            elif name == "wait" and timers:
                index, _, _ = rt.select(recv_case(timers[k % len(timers)].c),
                                        recv_case(rt.after(delay)))
                fired.append((label, "wait", index, rt.now()))
            elif name == "callback":
                handles.append(clock.call_after(
                    delay, partial(fired.append, (label, "callback", k))))
            elif name == "cancel" and handles:
                fired.append((label, "cancel",
                              handles[k % len(handles)].cancel()))

    done = rt.make_chan(len(goroutines))
    for label, ops in enumerate(goroutines):
        rt.go(lambda label=label, ops=ops: (body(label, ops),
                                            done.send(label)))
    for _ in goroutines:
        done.recv()
    return fired


@settings(max_examples=40, deadline=None)
@given(program=_timer_programs(), seed=st.integers(0, 50))
def test_random_timer_programs_compiled_vs_pure(program, seed):
    goroutines, time_limit = program
    _assert_same_timer_run(partial(_run_timer_program, goroutines),
                           seed=seed, time_limit=time_limit,
                           max_steps=5_000)


@needs_drive_loop
def test_untraced_loadgen_run_enters_drive_at_most_a_few_times():
    """Thousands of timers fire inside drive: an untraced echo load run
    enters it once for the main phase and once for the drain."""
    from repro.net.demo import echo_load_program

    counter = _DriveCounter()
    program = partial(echo_load_program, clients=4, requests=40)
    result = run(program, seed=4, keep_trace=False, observers=[counter])
    assert result.status == "ok"
    assert 1 <= len(counter.verdicts) <= 3
    assert None not in counter.verdicts
    with force_pure():
        pure = run(program, seed=4, keep_trace=False)
    assert (_signature(result), result.end_time) \
        == (_signature(pure), pure.end_time)


@needs_drive_loop
def test_faulted_run_leaves_drive_at_idle_only_at_its_horizons():
    """A faulted run fires timers inside drive below the injector's
    clock horizon: it leaves drive at idle only when the next live timer
    is at or past the horizon, with the clock still short of it, once per
    ``after_time`` fault, and keeps the pure loop's run and fault log."""
    plan = FaultPlan(name="horizons", faults=(
        Fault("wakeup", after_time=1.0),
        Fault("wakeup", after_time=1.6),
    ))
    counter = _DriveCounter()
    result = run(_heartbeat, seed=1, keep_trace=False, time_limit=2.5,
                 inject=plan, observers=[counter])
    assert result.status == "timeout"
    idle = [entry for entry in counter.entries if entry[1] == "idle"]
    assert [horizon for horizon, *_ in idle] == [1.0, 1.6]
    for horizon, _verdict, now, earliest in idle:
        assert now < horizon <= earliest
    assert counter.entries[-1][:2] == (math.inf, "timeout")
    assert result.drive_steps == result.steps
    with force_pure():
        pure = run(_heartbeat, seed=1, keep_trace=False, time_limit=2.5,
                   inject=plan)
    assert (_signature(result), result.end_time,
            [record.to_dict() for record in result.injected]) \
        == (_signature(pure), pure.end_time,
            [record.to_dict() for record in pure.injected])
    # With no fault waiting on the clock there is no horizon: one entry,
    # and the run is the plain one.
    counter = _DriveCounter()
    noop = run(_heartbeat, seed=1, keep_trace=False, time_limit=2.5,
               inject=FaultPlan(name="noop"), observers=[counter])
    assert [entry[:2] for entry in counter.entries] == [(math.inf, "timeout")]
    plain = run(_heartbeat, seed=1, keep_trace=False, time_limit=2.5)
    assert (_signature(noop), noop.end_time) \
        == (_signature(plain), plain.end_time)


# ---------------------------------------------------------------------------
# Explored runs: the compiled loop calls a non-stock RNG's randrange
# ---------------------------------------------------------------------------


#: Scripted prefixes: the default schedule, a short branch, and one whose
#: entries exceed most live ranges, so its draws are clamped (diverge).
_PREFIXES = [(), (1, 0, 1), (9,) * 8]


def _explored(program, prefix, pure=False, **kwargs):
    from repro.detect.systematic import ScriptedChoices

    choices = ScriptedChoices(prefix)
    reader = _PickLogReader()
    with force_pure() if pure else nullcontext():
        result = run(program, rng=choices, keep_trace=True,
                     observers=[reader], **kwargs)
    return (_signature(result), choices.log, choices.divergences,
            reader.picks, _event_log(result)), result


def _explored_kernels():
    # Every third kernel: blocking and non-blocking, channel, lock and
    # library bugs alike.
    return _corpus_kernels()[::3]


@pytest.mark.parametrize("prefix", _PREFIXES, ids=["default", "branch",
                                                   "clamped"])
@pytest.mark.parametrize("variant", ["buggy", "fixed"])
@pytest.mark.parametrize("kernel", _explored_kernels(),
                         ids=lambda k: k.meta.kernel_id)
def test_explored_run_compiled_vs_pure(kernel, variant, prefix):
    """Choice log, clamp divergences, pick log and kept trace records of
    a scripted run are the same on both loops."""
    program = getattr(kernel, variant)
    compiled, _ = _explored(program, prefix, **kernel.run_kwargs)
    pure, _ = _explored(program, prefix, pure=True, **kernel.run_kwargs)
    assert compiled == pure


def test_clamped_prefixes_diverge_somewhere():
    """The clamped prefix above really takes the divergence path."""
    diverged = [kernel.meta.kernel_id for kernel in _explored_kernels()
                if _explored(kernel.buggy, _PREFIXES[-1],
                             **kernel.run_kwargs)[0][2]]
    assert len(diverged) >= 5


@needs_drive_loop
@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_explored_run_takes_every_step_inside_drive(workload):
    """An explored tasklet run steps only inside drive; under
    ``force_pure`` and on the thread vehicle it takes none there."""
    program = ALL_WORKLOADS[workload]
    _, compiled = _explored(program, (1, 2, 0, 1))
    assert compiled.compiled is True
    assert compiled.drive_steps == compiled.steps > 0
    _, pure = _explored(program, (1, 2, 0, 1), pure=True)
    assert pure.drive_steps == 0
    _, thread = _explored(program, (1, 2, 0, 1), backend="thread")
    assert thread.drive_steps == 0
    assert _signature(compiled) == _signature(pure) == _signature(thread)


def _three_workers(rt):
    """Three workers sending on one buffered channel, main receiving:
    several goroutines are runnable at most picks, and nothing selects,
    so every draw is a scheduling pick."""
    ch = rt.make_chan(2)

    def worker(i):
        for j in range(4):
            ch.send((i, j))

    for i in range(3):
        rt.go(worker, i)
    return [ch.recv() for _ in range(12)]


class _FaultyRNG:
    """Draws index 0 except at ``at`` (1-based call count), where it
    returns ``value(n)``, raises ``value`` if it is an exception, or
    notes which Python frame called it."""

    def __init__(self, at, value):
        self.at = at
        self.value = value
        self.calls = 0
        self.caller = None

    def randrange(self, n):
        import sys

        self.calls += 1
        if self.calls != self.at:
            return 0
        self.caller = sys._getframe(1).f_code.co_name
        if isinstance(self.value, BaseException):
            raise self.value
        return self.value(n)


class _SchedGrabber:
    def attach(self, rt):
        self.sched = rt.sched


def _faulty_run(rng, pure):
    grab = _SchedGrabber()
    reader = _PickLogReader()
    with force_pure() if pure else nullcontext():
        try:
            result = run(_three_workers, rng=rng, keep_trace=True,
                         observers=[grab, reader])
        except Exception as exc:  # noqa: BLE001 - compared below
            sched = grab.sched
            picks = [(pick[0], tuple(g.gid for g in pick[1]), pick[2])
                     for pick in sched.pick_log]
            return ("raised", type(exc), str(exc), sched._steps,
                    sched._budget_used, picks,
                    sched._current is None), rng.caller
    return ("ok", _signature(result), reader.picks,
            _event_log(result)), rng.caller


def _assert_faulty_draw_matches(at, value):
    compiled, compiled_caller = _faulty_run(_FaultyRNG(at, value), False)
    pure, pure_caller = _faulty_run(_FaultyRNG(at, value), True)
    assert compiled == pure
    # The pure loop draws in _advance; the compiled one calls randrange
    # straight from drive, whose caller is run_until_quiescent.
    assert pure_caller == "_advance"
    if get_drive() is not None and resolve_backend("coroutine") == "tasklet":
        assert compiled_caller == "run_until_quiescent"
    return compiled


@pytest.mark.parametrize("at", [1, 6, 15])
def test_raising_randrange_raises_identically(at):
    """A draw that raises leaves run() with the same exception, the
    same ``_steps``/``_budget_used`` and no current goroutine on both
    loops."""
    outcome = _assert_faulty_draw_matches(at, KeyError("scripted failure"))
    assert outcome[:3] == ("raised", KeyError, "'scripted failure'")
    assert outcome[3] == outcome[4] == at
    assert outcome[6] is True


@pytest.mark.parametrize("at", [1, 6, 15])
def test_out_of_range_draw_raises_like_list_indexing(at):
    """A draw of ``n`` fails as ``runnable[n]`` does, after its pick
    record is logged."""
    outcome = _assert_faulty_draw_matches(at, lambda n: n)
    assert outcome[:3] == ("raised", IndexError, "list index out of range")
    step, runnable, index = outcome[5][-1]
    assert step == at and index == len(runnable)


@pytest.mark.parametrize("at", [1, 6, 15])
def test_negative_draw_counts_from_the_end(at):
    """A draw of ``-1`` runs ``runnable[-1]`` and logs ``-1``."""
    outcome = _assert_faulty_draw_matches(at, lambda n: -1)
    assert outcome[0] == "ok"
    assert [pick for pick in outcome[2] if pick[2] == -1][0][0] == at


class _StateRecordingRNG:
    """A seeded RNG that records ``(sched._steps, sched.current_gid)``, the
    scheduler as it shows at each draw."""

    def __init__(self):
        self.rng = random.Random(7)
        self.seen = []

    def attach(self, rt):
        self.sched = rt.sched

    def randrange(self, n):
        self.seen.append((self.sched._steps, self.sched.current_gid))
        return self.rng.randrange(n)


@pytest.mark.parametrize("keep_trace", [False, True])
def test_scripted_rng_sees_the_pure_loops_scheduler_state(keep_trace):
    """At each draw ``_steps`` already counts the pick and no goroutine is
    current, on both loops, traced or not."""
    seen = []
    for pure in (False, True):
        rng = _StateRecordingRNG()
        with force_pure() if pure else nullcontext():
            result = run(_three_workers, rng=rng, keep_trace=keep_trace,
                         observers=[rng])
        assert result.status == "ok"
        seen.append(rng.seen)
    assert seen[0] == seen[1]
    assert seen[0] == [(step, 0) for step in range(1, len(seen[0]) + 1)]


# ---------------------------------------------------------------------------
# The loop contract: one stop rule, no silent switch to the pure loop
# ---------------------------------------------------------------------------


class _NotExactList(list):
    """A list the pure loop and ``heapq`` accept but drive must reject."""


class _Malform:
    def __init__(self, change):
        self.change = change

    def attach(self, rt):
        self.sched = rt.sched
        self.change(rt.sched)


@needs_drive_loop
@pytest.mark.parametrize("change", [
    lambda sched: setattr(sched, "_runnable", deque(sched._runnable)),
    lambda sched: setattr(sched, "pick_log", ()),
    lambda sched: setattr(sched.clock, "_heap",
                          _NotExactList(sched.clock._heap)),
    lambda sched: setattr(sched, "_horizon", 1),
    lambda sched: setattr(sched, "_horizon", None),
], ids=["deque-runnable", "tuple-pick-log", "list-subclass-heap",
        "int-horizon", "none-horizon"])
def test_drive_rejects_a_malformed_scheduler(change):
    """drive reads these objects through ``PyList_GET_*``: a scheduler
    that does not hold exact lists is a TypeError, and no step runs on
    the pure loop instead."""
    malform = _Malform(change)
    with pytest.raises(TypeError, match="drive\\(\\) needs"):
        run(_three_workers, seed=1, observers=[malform])
    assert malform.sched.steps == 0


@pytest.mark.parametrize("stop_mode", [("bogus", None), ("main", None)],
                         ids=["bogus", "main-without-goroutine"])
@pytest.mark.parametrize("pure", [False, True], ids=["compiled", "pure"])
def test_unknown_stop_mode_is_a_value_error(stop_mode, pure):
    with force_pure() if pure else nullcontext():
        sched = Scheduler(seed=0)
    with pytest.raises(ValueError, match="unknown stop mode"):
        sched.run_until_quiescent(stop_mode)
