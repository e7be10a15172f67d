"""Communication-misuse predictions: channel, cond, and WaitGroup shapes.

Five rules over the weak happens-before closure of one recorded run:

* **send-on-closed** — a completed ``send`` and a ``close`` on the same
  channel by different goroutines, unordered by the weak closure: some
  feasible reordering runs the close first and the send panics (the
  paper's Section 5/7 misuse; Go's most common non-blocking panic).
  Locks deliberately do *not* suppress this one — mutual exclusion
  permits either order of two critical sections, so a common lock makes
  the panic no less reachable.
* **lost-signal** — a ``cond.signal``/``broadcast`` unordered with a
  ``cond.wait``: reordered, the signal fires before the waiter parks and
  is lost (signals are not sticky), leaving the waiter blocked forever.
  Suppressed when the trace shows the predicate-loop protocol that makes
  the race benign: the waiter re-reads, under the cond's lock and
  *after* its wait, a variable the signaler wrote under the same lock
  before signalling — the re-check loop re-examines the predicate on
  wake, so a missed wakeup cannot strand it.
* **wg-add-wait-race** — a ``wg.Add(+n)`` unordered with a ``wg.Wait``
  on the same WaitGroup (Figure 9): ``Wait`` never waits for ``Add``,
  so a reordering lets ``Wait`` pass before the counter rises.
* **double-close** — a ``close`` guarded by a ``select``-with-default
  "already closed?" check (Figure 10's teardown idiom) while another
  goroutine's identical guard is unordered with the close: both guards
  can pass before either close lands, and the second close panics.
  Suppressed when the close runs inside ``once.Do`` — the committed
  Docker fix.
* **abandoned-sender** — an unbuffered rendezvous whose receive was
  committed by a multi-case ``select`` with *another* case demonstrably
  ready at the commit (a queued value, a close, or a parked sender):
  had the select chosen the other case — a coin flip at runtime — the
  sender would block forever (Figure 1's leaked request handler).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..detect.hb import Stamp
from ..runtime.trace import EventKind, TraceEvent
from .model import SyncTrace
from .report import Prediction

_SIGNALS = (EventKind.COND_SIGNAL, EventKind.COND_BROADCAST)


def predict_comm(trace: SyncTrace, stamps: List[Stamp]) -> List[Prediction]:
    """All communication-shape predictions from the weak closure."""
    out: List[Prediction] = []
    out.extend(_send_on_closed(stamps))
    out.extend(_double_closes(stamps))
    out.extend(_abandoned_senders(stamps))
    out.extend(_lost_signals(stamps))
    out.extend(_wg_add_wait(stamps))
    return out


def _send_on_closed(stamps: List[Stamp]) -> List[Prediction]:
    sends: Dict[int, List[Stamp]] = {}
    closes: Dict[int, List[Stamp]] = {}
    for s in stamps:
        if s.event.kind == EventKind.CHAN_SEND:
            sends.setdefault(int(s.event.obj), []).append(s)
        elif s.event.kind == EventKind.CHAN_CLOSE:
            closes.setdefault(int(s.event.obj), []).append(s)

    out: List[Prediction] = []
    for obj in sorted(set(sends) & set(closes)):
        hit = next(
            ((send, close)
             for close in closes[obj] for send in sends[obj]
             if send.concurrent_with(close)),
            None)
        if hit is None:
            continue
        send, close = hit
        out.append(Prediction(
            family="comm", rule="send-on-closed",
            detail=(f"chan#{obj}: send by g{send.event.gid} "
                    f"(step {send.event.step}) is unordered with close by "
                    f"g{close.event.gid} (step {close.event.step}); "
                    "close-first schedules panic"),
            obj=obj,
            gids=(send.event.gid, close.event.gid),
            steps=(send.event.step, close.event.step),
        ))
    return out


_SCHED_NOISE = (EventKind.GO_BLOCK, EventKind.GO_UNBLOCK)


def _stamps_by_gid(stamps: List[Stamp]) -> Dict[int, List[Stamp]]:
    by_gid: Dict[int, List[Stamp]] = {}
    for s in stamps:
        by_gid.setdefault(s.event.gid, []).append(s)
    return by_gid


def _double_closes(stamps: List[Stamp]) -> List[Prediction]:
    by_gid = _stamps_by_gid(stamps)
    # Every select-with-default "already closed?" check, per channel.
    guards: Dict[int, List[Stamp]] = {}
    for s in stamps:
        e = s.event
        if e.kind == EventKind.SELECT_BEGIN and e.info.get("default"):
            for cid in e.info.get("chans", ()):
                guards.setdefault(int(cid), []).append(s)

    out: List[Prediction] = []
    seen: set = set()
    for s in stamps:
        e = s.event
        if e.kind != EventKind.CHAN_CLOSE:
            continue
        obj = int(e.obj)
        if obj in seen:
            continue
        mine = by_gid[e.gid]
        idx = mine.index(s)
        if not _guarded_close(mine, idx, obj):
            continue
        if _once_protected(mine, idx):
            continue
        racer = next(
            (g for g in guards.get(obj, ())
             if g.event.gid != e.gid and g.concurrent_with(s)),
            None)
        if racer is None:
            continue
        seen.add(obj)
        out.append(Prediction(
            family="comm", rule="double-close",
            detail=(f"chan#{obj}: close by g{e.gid} (step {e.step}) is "
                    "guarded by a select-default closed-check, and "
                    f"g{racer.event.gid}'s identical check (step "
                    f"{racer.event.step}) is unordered with the close; "
                    "both guards can pass before either close lands and "
                    "the second close panics (Figure 10)"),
            obj=obj,
            gids=(e.gid, racer.event.gid),
            steps=(e.step, racer.event.step),
        ))
    return out


def _guarded_close(mine: List[Stamp], idx: int, obj: int) -> bool:
    """Was this close immediately preceded by its own default-guard?

    The Figure-10 idiom leaves a footprint in the closer's own event
    sequence: ``SELECT_BEGIN`` (with default, over the closed channel),
    ``SELECT_COMMIT`` choosing the default branch, then the close.
    """
    commit = begin = None
    for s in reversed(mine[:idx]):
        kind = s.event.kind
        if kind in _SCHED_NOISE:
            continue
        if commit is None:
            if kind != EventKind.SELECT_COMMIT:
                return False
            commit = s.event
        elif kind == EventKind.SELECT_BEGIN:
            begin = s.event
            break
    if commit is None or begin is None:
        return False
    return (commit.info.get("chosen") == -1
            and bool(begin.info.get("default"))
            and obj in begin.info.get("chans", ()))


def _once_protected(mine: List[Stamp], idx: int) -> bool:
    """Did the close run inside ``once.Do``?  (The committed fix.)

    ``Once`` emits ``ONCE_DO(ran=True)`` right after the protected
    function returns, so a once-wrapped close is immediately followed,
    in the closer's own sequence, by that event.
    """
    for s in mine[idx + 1:]:
        if s.event.kind in _SCHED_NOISE:
            continue
        return (s.event.kind == EventKind.ONCE_DO
                and bool(s.event.info.get("ran")))
    return False


def _abandoned_senders(stamps: List[Stamp]) -> List[Prediction]:
    by_gid = _stamps_by_gid(stamps)
    out: List[Prediction] = []
    seen: set = set()
    for s in stamps:
        e = s.event
        if e.kind != EventKind.CHAN_RECV:
            continue
        partner = e.info.get("partner")
        if (not e.info.get("sync") or partner is None or partner == 0
                or e.info.get("closed")):
            continue
        obj = int(e.obj)
        if obj in seen:
            continue
        mine = by_gid[e.gid]
        idx = mine.index(s)
        begin = _governing_select(mine, idx, obj)
        if begin is None or begin.info.get("cases", 0) < 2:
            continue
        ready = next(
            ((int(cid), why) for cid in begin.info.get("chans", ())
             if int(cid) != obj
             and (why := _chan_ready_at(int(cid), e.step, stamps, by_gid))),
            None)
        if ready is None:
            continue
        seen.add(obj)
        other, why = ready
        out.append(Prediction(
            family="comm", rule="abandoned-sender",
            detail=(f"chan#{obj}: g{partner}'s unbuffered send "
                    f"(rendezvous at step {e.step}) was received by a "
                    f"{begin.info['cases']}-case select on g{e.gid} with "
                    f"another case already ready ({why} on chan#{other}); "
                    "the alternative commit leaves the sender blocked "
                    "forever (Figure 1)"),
            obj=obj,
            gids=(int(partner), e.gid),
            steps=(e.step,),
        ))
    return out


def _governing_select(mine: List[Stamp], idx: int,
                      obj: int) -> Optional[TraceEvent]:
    """The SELECT_BEGIN whose commit performed the receive at ``idx``.

    Fast path: ``SELECT_BEGIN, CHAN_RECV, SELECT_COMMIT``.  Parked path:
    the recv lands between ``GO_BLOCK`` and ``GO_UNBLOCK`` and the
    commit follows the wakeup.  Both leave the recv sandwiched between
    its begin and commit with only scheduling noise in between.
    """
    begin = None
    for s in reversed(mine[:idx]):
        kind = s.event.kind
        if kind in _SCHED_NOISE:
            continue
        if kind == EventKind.SELECT_BEGIN:
            begin = s.event
        break
    if begin is None or obj not in begin.info.get("chans", ()):
        return None
    after = next((s.event for s in mine[idx + 1:]
                  if s.event.kind not in _SCHED_NOISE), None)
    if after is None or after.kind != EventKind.SELECT_COMMIT:
        return None
    return begin


def _chan_ready_at(cid: int, step: int, stamps: List[Stamp],
                   by_gid: Dict[int, List[Stamp]]) -> Optional[str]:
    """Evidence that channel ``cid``'s recv case was ready at ``step``."""
    queued = 0
    for s in stamps:
        e = s.event
        if e.step >= step:
            break
        if e.obj != cid:
            continue
        if e.kind == EventKind.CHAN_CLOSE:
            return "close"
        if e.kind == EventKind.CHAN_SEND:
            queued += 1
        elif e.kind == EventKind.CHAN_RECV and not e.info.get("closed"):
            queued -= 1
    if queued > 0:
        return "a queued value"
    for mine in by_gid.values():
        last = None
        for s in mine:
            if s.event.step >= step:
                break
            last = s.event
        if (last is not None and last.kind == EventKind.GO_BLOCK
                and last.obj == cid
                and str(last.info.get("reason", "")).startswith("chan.send")):
            return "a parked sender"
    return None


def _lost_signals(stamps: List[Stamp]) -> List[Prediction]:
    waits: Dict[int, List[Stamp]] = {}
    signals: Dict[int, List[Stamp]] = {}
    for s in stamps:
        if s.event.kind == EventKind.COND_WAIT:
            waits.setdefault(int(s.event.obj), []).append(s)
        elif s.event.kind in _SIGNALS:
            signals.setdefault(int(s.event.obj), []).append(s)

    out: List[Prediction] = []
    for obj in sorted(set(waits) & set(signals)):
        for wait in waits[obj]:
            hit = next(
                (sig for sig in signals[obj]
                 if sig.event.gid != wait.event.gid
                 and wait.concurrent_with(sig)
                 and not _predicate_loop(wait, sig, stamps)),
                None)
            if hit is None:
                continue
            out.append(Prediction(
                family="comm", rule="lost-signal",
                detail=(f"cond#{obj}: signal by g{hit.event.gid} "
                        f"(step {hit.event.step}) is unordered with wait "
                        f"by g{wait.event.gid} (step {wait.event.step}) "
                        "and no predicate re-check loop guards the wait; "
                        "signal-first schedules lose the wakeup"),
                obj=obj,
                gids=(wait.event.gid, hit.event.gid),
                steps=(wait.event.step, hit.event.step),
            ))
            break
    return out


def _predicate_loop(wait: Stamp, signal: Stamp,
                    stamps: List[Stamp]) -> bool:
    """Does the waiter follow the condition-variable protocol?

    True when the waiter re-reads, under a lock it held at the wait,
    and *after* the wait, some variable the signaller wrote under the
    same lock before signalling.  That is the observable footprint of
    ``for !predicate() { cond.Wait() }`` with the predicate updated
    under the lock — the shape for which a lost wakeup is benign.
    """
    wait_locks = {lock for lock, _mode in wait.locks}
    if not wait_locks:
        return False
    wgid, sgid = wait.event.gid, signal.event.gid
    written: set = set()    # (var, lock) written by signaller pre-signal
    for s in stamps:
        e = s.event
        if (e.gid == sgid and e.kind == EventKind.MEM_WRITE
                and e.step < signal.event.step):
            for lock, _mode in s.locks:
                if lock in wait_locks:
                    written.add((int(e.obj), lock))
    if not written:
        return False
    for s in stamps:
        e = s.event
        if (e.gid == wgid and e.kind == EventKind.MEM_READ
                and e.step > wait.event.step):
            for lock, _mode in s.locks:
                if (int(e.obj), lock) in written:
                    return True
    return False


def _wg_add_wait(stamps: List[Stamp]) -> List[Prediction]:
    adds: Dict[int, List[Stamp]] = {}
    wg_waits: Dict[int, List[Stamp]] = {}
    for s in stamps:
        if (s.event.kind == EventKind.WG_ADD
                and s.event.info.get("delta", 0) > 0):
            adds.setdefault(int(s.event.obj), []).append(s)
        elif s.event.kind == EventKind.WG_WAIT:
            wg_waits.setdefault(int(s.event.obj), []).append(s)

    out: List[Prediction] = []
    for obj in sorted(set(adds) & set(wg_waits)):
        hit = next(
            ((add, wait)
             for wait in wg_waits[obj] for add in adds[obj]
             if add.concurrent_with(wait)),
            None)
        if hit is None:
            continue
        add, wait = hit
        out.append(Prediction(
            family="comm", rule="wg-add-wait-race",
            detail=(f"wg#{obj}: Add(+) by g{add.event.gid} "
                    f"(step {add.event.step}) is unordered with Wait by "
                    f"g{wait.event.gid} (step {wait.event.step}); "
                    "Wait-first schedules pass before the counter rises "
                    "(Figure 9 misuse)"),
            obj=obj,
            gids=(add.event.gid, wait.event.gid),
            steps=(add.event.step, wait.event.step),
        ))
    return out
