"""Property-based tests: the net fabric against its per-message reference.

``Network.transmit`` queues an in-order copy on its pipe's landing queue
and fires the pipe's bound ``land``; only a reorder-jittered copy carries
its message in its own callback.  The reference below is the earlier
``transmit``, which armed one ``partial`` of ``_deliver`` per message, and
that ``_deliver``.  Generated send sequences over one to three
connections, with drop, duplicate, reorder and delay rules, partitions
and heals, closes and sleeps, must give the same message log, stats,
payload order, steps and result under both, on the compiled loop and the
pure one.
"""

from contextlib import nullcontext
from functools import partial
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro import run
from repro.net import Conn
from repro.net.fabric import Network
from repro.runtime._hotloop import force_pure
from repro.runtime.trace import EventKind

SETTINGS = dict(max_examples=60, deadline=None)

NODES = ("n0", "n1", "n2")
#: The connections a program may open, as (dialer, peer) node pairs.
PAIRS = (("n0", "n1"), ("n1", "n2"), ("n2", "n0"))


def _reference_transmit(self, pipe, payload):
    """The per-message ``partial`` transmit the landing queue replaced."""
    sched = self._sched
    link = self.link(pipe.src, pipe.dst)
    if self._rules:
        drop, dup, reorder, extra = self._effective(link)
    else:
        drop, dup = link.drop, link.duplicate
        reorder, extra = link.reorder, link.extra_delay
    now = sched.clock.now
    seq = self._next_msg
    self._next_msg += 1
    self.stats["sent"] += 1
    traced = sched.trace.active
    logged = self.log_messages
    if traced:
        sched.emit(EventKind.NET_SEND, obj=pipe.obj,
                   info={"link": pipe.name, "seq": seq,
                         "latency": link.latency + extra})
    if logged:
        self._log_line(f"SEND {pipe.name} #{seq}")

    rng = self._rng
    if drop and rng.random() < drop:
        self.stats["dropped"] += 1
        if traced:
            sched.emit(EventKind.NET_DROP, gid=0, obj=pipe.obj,
                       info={"link": pipe.name, "seq": seq,
                             "reason": "loss"})
        if logged:
            self._log_line(f"DROP {pipe.name} #{seq} loss")
        return

    copies = 1
    if dup and rng.random() < dup:
        copies = 2
        self.stats["duplicated"] += 1
        if logged:
            self._log_line(f"DUP  {pipe.name} #{seq}")

    base = now + link.latency + extra
    deliver = partial(_reference_deliver, self, pipe, seq, payload, now)
    for _ in range(copies):
        deliver_at = base
        if reorder and rng.random() < reorder:
            jitter = link.jitter or 2.0 * (link.latency or 0.001)
            deliver_at += rng.uniform(0.0, jitter)
        else:
            if deliver_at < pipe.last_deliver:
                deliver_at = pipe.last_deliver
            pipe.last_deliver = deliver_at
        pipe.in_flight += 1
        sched.clock.call_at(deliver_at, deliver)


def _reference_deliver(self, pipe, seq, payload, sent_at):
    """The landing callback of :func:`_reference_transmit`."""
    pipe.in_flight -= 1
    if self._partitions and not self.reachable(pipe.src, pipe.dst):
        self.stats["dropped"] += 1
        if self._sched.trace.active:
            self._sched.emit(EventKind.NET_DROP, gid=0, obj=pipe.obj,
                             info={"link": pipe.name, "seq": seq,
                                   "reason": "partition"})
        if self.log_messages:
            self._log_line(f"DROP {pipe.name} #{seq} partition")
    elif pipe.aborted:
        self.stats["dropped"] += 1
        if self.log_messages:
            self._log_line(f"DROP {pipe.name} #{seq} closed")
    else:
        self.stats["delivered"] += 1
        pipe.queue.append((seq, payload, sent_at))
        if self.log_messages:
            self._log_line(f"RECV {pipe.name} #{seq}")
    pipe.wake_all()


_rates = st.sampled_from([0.0, 0.2, 0.5, 1.0])
_patterns = st.sampled_from(["*", "n0->*", "*->n1", "n1->n2"])

_ops = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 2), st.booleans(),
              st.integers(1, 4)),
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.0005, 0.001,
                                                 0.003])),
    st.tuples(st.just("rule"),
              st.sampled_from(["drop", "duplicate", "reorder", "delay"]),
              _patterns, _rates),
    st.tuples(st.just("link"), st.integers(0, 2),
              st.sampled_from(["latency", "jitter"]),
              st.sampled_from([0.0, 0.0005, 0.002])),
    st.tuples(st.just("default_latency"),
              st.sampled_from([0.0, 0.0005, 0.002])),
    st.tuples(st.just("partition"), st.integers(0, 2)),
    st.tuples(st.just("heal"),),
    st.tuples(st.just("close_write"), st.integers(0, 2), st.booleans()),
    st.tuples(st.just("shutdown"), st.integers(0, 2), st.booleans()),
)


def fabric_program(npipes, ops, rt):
    """Open ``npipes`` connections, each end drained by its own receiver,
    then play ``ops`` from main; finally half-close what is still open so
    every receiver reaches EOF.  Returns what each end received."""
    net = rt.network(name="prop", log_messages=True)
    conns = [Conn.pair(rt, net, *PAIRS[i]) for i in range(npipes)]
    got = [[[], []] for _ in conns]
    done = rt.make_chan(2 * npipes)

    def drain(conn, into):
        while True:
            payload, ok = conn.recv_ok()
            if not ok:
                break
            into.append(payload)
        done.send(None)

    for i, ends in enumerate(conns):
        for side in (0, 1):
            rt.go(drain, ends[side], got[i][side])

    sent = 0
    for op in ops:
        kind = op[0]
        if kind == "send":
            _, index, side, count = op
            if index >= npipes:
                continue
            conn = conns[index][side]
            for _ in range(count):
                if conn.write_closed or conn.peer_reset:
                    break
                conn.send(sent)
                sent += 1
        elif kind == "sleep":
            rt.sleep(op[1])
        elif kind == "rule":
            net.set_fault_rate(op[1], op[2], op[3])
        elif kind == "link":
            src, dst = PAIRS[op[1]]
            setattr(net.link(src, dst), op[2], op[3])
        elif kind == "default_latency":
            net.default_latency = op[1]
        elif kind == "partition":
            alone = NODES[op[1]]
            net.partition({alone}, set(NODES) - {alone})
        elif kind == "heal":
            net.heal()
        elif op[1] < npipes:
            conn = conns[op[1]][op[2]]
            if kind == "shutdown":
                conn.shutdown()
            elif not conn.write_closed:
                conn.close_write()

    rt.sleep(0.01)
    for ends in conns:
        for conn in ends:
            if not conn.write_closed:
                conn.close_write()
    for _ in range(2 * npipes):
        done.recv()
    return got, net.format_message_log(), dict(net.stats)


def _outcome(npipes, ops, seed, reference, pure):
    program = partial(fabric_program, npipes, ops)
    patch = (mock.patch.object(Network, "transmit", _reference_transmit)
             if reference else nullcontext())
    with patch, force_pure() if pure else nullcontext():
        result = run(program, seed=seed, keep_trace=False)
    return result.status, result.steps, result.main_result


@settings(**SETTINGS)
@given(npipes=st.integers(1, 3),
       ops=st.lists(_ops, min_size=1, max_size=25),
       seed=st.integers(0, 2**16))
@example(npipes=1, ops=[("rule", "reorder", "*", 0.5),
                        ("rule", "duplicate", "*", 0.5),
                        ("send", 0, False, 4), ("send", 0, True, 4),
                        ("sleep", 0.0005), ("send", 0, False, 4)], seed=1)
@example(npipes=2, ops=[("rule", "delay", "*", 0.5),
                        ("send", 0, False, 3), ("send", 1, True, 3),
                        ("partition", 1), ("send", 0, True, 2),
                        ("sleep", 0.001), ("heal",), ("send", 1, False, 2),
                        ("close_write", 0, False), ("shutdown", 1, True)],
         seed=7)
def test_landing_queue_matches_per_message_callbacks(npipes, ops, seed):
    expected = _outcome(npipes, ops, seed, reference=True, pure=False)
    assert expected[0] == "ok"
    for pure in (False, True):
        assert _outcome(npipes, ops, seed, reference=False,
                        pure=pure) == expected
