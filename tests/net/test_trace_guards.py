"""The untraced net and timer paths build no trace payloads, and guarding
them changes nothing anyone can observe.

* Golden digests over every traced event (and the fabric message log) of
  ``cluster_demo``, a small echo load and a faulty fabric.  They were
  computed before the payload guards existed, so a guard that drops or
  reshapes a traced event fails here.
* With no trace consumer, the send / receive / sleep / timer paths never
  call ``Scheduler.emit``.
* Untraced, traced and pure-Python runs of ``loadgen_summary`` agree.
"""

import contextlib
import hashlib
import sys
from functools import partial

import pytest

from repro import run
from repro.net import Conn
from repro.net import demo
from repro.net.demo import cluster_demo, loadgen_summary
from repro.net.load import echo_load_program
from repro.runtime._hotloop import force_pure, get_drive
from repro.runtime.scheduler import Scheduler, resolve_backend
from repro.runtime.trace import EventKind


def _faulty_fabric(rt):
    """Loss, duplication, reordering, an in-flight partition and a closed
    receiver on one logged fabric: every DROP / DUP branch fires."""
    net = rt.network(name="faultnet", log_messages=True)
    a, b = Conn.pair(rt, net, "a", "b")
    net.set_fault_rate("drop", "a->*", 0.2)
    net.set_fault_rate("duplicate", "a->*", 0.2)
    net.set_fault_rate("reorder", "a->*", 0.3)
    for i in range(20):
        a.send(i)
    net.partition({"a"}, {"b"})
    a.send("cut")
    rt.sleep(0.0015)
    net.heal()
    a.send("healed")
    a.close_write()
    got = []
    while True:
        payload, ok = b.recv_ok()
        if not ok:
            break
        got.append(payload)
    c, d = Conn.pair(rt, net, "c", "d")
    c.send("late")
    d.shutdown()
    rt.sleep(0.01)
    return got, net.format_message_log(), dict(net.stats)


_PROGRAMS = {
    "cluster_demo": (cluster_demo, 400_000),
    "echo": (partial(echo_load_program, clients=3, requests=20), 100_000),
    "faulty": (_faulty_fabric, 100_000),
}

#: sha256 over ``(step, time, gid, kind, obj, sorted(info))`` of every
#: traced event, then the message log when the program returns one.  Each
#: was computed in a fresh process.
_GOLDEN = {
    ("cluster_demo", 1):
        "7eae291ed2f0d4639a19cf44eaf45b629b416eab14b3ac2507838ceea5d50483",
    ("cluster_demo", 7):
        "9af61bcf285cb597600fb227e29ae612725acd5fcbc56d38299d5554de78dfa3",
    ("echo", 1):
        "17a16eaac5100b4075822a728634234dde7e2c99668f587ffaf2ca00dbca6421",
    ("echo", 7):
        "ca316e37e8d227c117654becd3b229af7053863e139c55cd5b0e00be8dfc863a",
    ("faulty", 1):
        "723ac333c05049110fd8de08597f31740ea09a9ea28998bd67fa47a97d7fb47b",
    ("faulty", 7):
        "2a58c7760984ca2e966a4f31d91c61c1a932d2e776caf310538cc9cbf433e525",
}


def _message_log(name, result):
    if name == "cluster_demo":
        return result.main_result["message_log_sha256"]
    if name == "faulty":
        return result.main_result[1]
    return ""


def _info(info):
    # ``go.create`` sites carry source line numbers; keep only the file so
    # an unrelated edit to an app does not move the digest.
    if "site" in info and info["site"]:
        info = dict(info, site=info["site"].rsplit(":", 1)[0])
    return sorted(info.items())


def _digest(name, result):
    h = hashlib.sha256()
    for ev in result.trace.events:
        h.update(repr((ev.step, ev.time, ev.gid, ev.kind, ev.obj,
                       _info(ev.info))).encode())
        h.update(b"\n")
    h.update(_message_log(name, result).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(_GOLDEN))
def test_traced_events_match_golden(name, seed):
    program, max_steps = _PROGRAMS[name]
    result = run(program, seed=seed, max_steps=max_steps)
    assert result.status == "ok"
    assert _digest(name, result) == _GOLDEN[(name, seed)]


@pytest.mark.parametrize("name", ["cluster_demo", "faulty"])
def test_message_log_does_not_depend_on_tracing(name):
    program, max_steps = _PROGRAMS[name]
    traced = run(program, seed=3, max_steps=max_steps)
    untraced = run(program, seed=3, max_steps=max_steps, keep_trace=False)
    assert _message_log(name, untraced) == _message_log(name, traced)
    assert untraced.main_result == traced.main_result
    assert untraced.steps == traced.steps


def test_faulty_fabric_covers_every_drop_branch():
    log = run(_faulty_fabric, seed=1).main_result[1]
    for marker in ("DUP ", " loss", " partition", " closed", "RECV "):
        assert marker in log


# Functions on the untraced hot path that must not call ``emit``.
_GUARDED = ("transmit", "land", "recv_ok", "try_recv", "sleep",
            "fire_timers", "ready")


def _count_emits(monkeypatch, body):
    calls = {}
    original = Scheduler.emit

    def counting_emit(self, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "emit", counting_emit)
    body()
    monkeypatch.undo()
    return calls


def test_untraced_loadgen_never_emits_from_hot_paths(monkeypatch):
    calls = _count_emits(monkeypatch, lambda: loadgen_summary(
        seed=4, clients=3, requests=20))
    assert {name: calls[name] for name in _GUARDED if name in calls} == {}


class _RecordProbe:
    """Observer that keeps the run's trace records without asking for
    them: in a ``keep_trace=False`` run they stay empty unless some event
    site appends regardless of ``Trace.active``."""

    def attach(self, rt):
        self.trace = rt.sched.trace

    def finish(self, result):
        self.records = list(self.trace.records())


@pytest.mark.parametrize("pure", [False, True])
def test_traced_run_emits_from_hot_paths(monkeypatch, pure):
    # The counter above sees these callers when a trace is kept, so its
    # empty result means "guarded", not "never reached".  Only the pure
    # loop fires timers through ``fire_timers``; the compiled one writes
    # their records in C.  A sleep parks in ``Scheduler.park_timer``,
    # which appends its records without ``emit``, so its guard is checked
    # on the records themselves: a traced run has them, an untraced run
    # appends none.
    program = partial(echo_load_program, clients=3, requests=20)
    loop = force_pure if pure else contextlib.nullcontext
    results = []

    def body():
        with loop():
            results.append(run(program, seed=4))

    calls = _count_emits(monkeypatch, body)
    for name in ("transmit", "recv_ok", "ready"):
        assert calls.get(name, 0) > 0, name
    compiled = get_drive() is not None and \
        resolve_backend("coroutine") == "tasklet"
    assert (calls.get("fire_timers", 0) > 0) == (pure or not compiled)

    # Each park writes its ``time.sleep`` record and then the
    # ``go.block`` one, at the same step and time, for the same goroutine.
    records = results[0].trace.records()
    parks = [(sleep, block) for sleep, block in zip(records, records[1:])
             if sleep[3] == EventKind.SLEEP and sleep[5]["duration"] > 0]
    assert parks
    for sleep, block in parks:
        assert block[:5] == sleep[:3] + (EventKind.GO_BLOCK, None)
        assert block[5] == {"reason": "time.sleep"}
    probe = _RecordProbe()
    with loop():
        untraced = run(program, seed=4, keep_trace=False, observers=[probe])
    assert untraced.steps == results[0].steps
    assert probe.records == []


def test_loadgen_summary_same_untraced_traced_and_pure(monkeypatch):
    kwargs = dict(seed=6, clients=4, requests=25)
    untraced = loadgen_summary(**kwargs)
    with force_pure():
        pure = loadgen_summary(**kwargs)
    monkeypatch.setattr(demo, "run",
                        lambda *a, **kw: run(*a, **{**kw, "keep_trace": True}))
    traced = loadgen_summary(**kwargs)
    assert untraced["status"] == "ok"
    assert untraced == traced == pure
