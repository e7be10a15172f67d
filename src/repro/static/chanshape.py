"""Channel-shape and misuse-of-primitive checks.

The paper's core finding is that message passing causes as many
blocking bugs as shared memory (Section 5, Table 5): sends with no
reachable receiver, receives with no reachable sender, close/send
races, the Figure 1 unbuffered-send-abandoned leak, and misuse of the
primitives that travel with channels — WaitGroup deltas, Cond signals,
context cancel handles, pipes and timers.  Each rule here is a query
over the :class:`~repro.static.ir.ProgramModel` counting *potential*
partner operations (paths that may execute count; unbounded loops count
as infinity).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .ir import MANY, AbstractObj, Op, Path, ProgramModel, ThreadModel
from .model import StaticFinding

_CHECKER = "chanshape"

_RECV_KINDS = ("recv", "recv_ok", "range", "try_recv")
_SEND_KINDS = ("send", "try_send")

INF = float("inf")


def _finding(rule: str, message: str, obj: Optional[AbstractObj],
             line: int, function: str = "") -> StaticFinding:
    return StaticFinding(checker=_CHECKER, rule=rule, message=message,
                         obj=obj.name if obj is not None else "",
                         function=function, line=line)


def check(model: ProgramModel) -> List[StaticFinding]:
    findings: List[StaticFinding] = []
    findings += _nil_chan_ops(model)
    findings += _chan_partner_rules(model)
    findings += _close_rules(model)
    findings += _select_rules(model)
    findings += _wg_rules(model)
    findings += _cond_rules(model)
    findings += _ctx_rules(model)
    findings += _pipe_rules(model)
    findings += _timer_rules(model)
    return findings


# -- helpers -----------------------------------------------------------

def _plain_chans(model: ProgramModel) -> List[AbstractObj]:
    return [c for c in model.objects_of_kind("chan")
            if not (c.nil or c.is_timer or c.is_ticker or c.is_done)]


def _owner(model: ProgramModel, op_needle: Op) -> Optional[ThreadModel]:
    for t, _pi, _oi, op in model.all_ops():
        if op is op_needle:
            return t
    return None


def _done_chan_live(model: ProgramModel, chan: AbstractObj) -> bool:
    """Can this ctx.done() channel ever fire?"""
    for ctx in model.objects_of_kind("ctx"):
        if ctx.attrs.get("done") is chan:
            cancel = ctx.attrs.get("cancel")
            if isinstance(cancel, AbstractObj):
                return cancel.cancel_called or cancel.auto_cancel
            return False  # background context: done never closes
    return True  # unknown provenance: assume live


# -- nil channels ------------------------------------------------------

def _nil_chan_ops(model: ProgramModel) -> List[StaticFinding]:
    out = []
    for chan in model.objects_of_kind("chan"):
        if not chan.nil:
            continue
        for t, _pi, _oi, op in model.ops_on(
                chan, "send", "recv", "recv_ok", "range"):
            out.append(_finding(
                "nil-chan-op",
                f"blocking {op.kind} on nil channel {chan.name} "
                "blocks forever",
                chan, op.line, t.name))
    return out


# -- partner-count rules -----------------------------------------------

def _chan_partner_rules(model: ProgramModel) -> List[StaticFinding]:
    out: List[StaticFinding] = []
    for chan in _plain_chans(model):
        out += _recv_rules(model, chan)
        out += _send_rules(model, chan)
        out += _count_rules(model, chan)
    return out


def _recv_rules(model: ProgramModel, chan: AbstractObj
                ) -> List[StaticFinding]:
    out = []
    flagged_no_sender = False
    for t, pi, oi, op in model.ops_on(chan, "recv", "recv_ok", "range"):
        if not op.blocking:
            continue
        senders = model.potential_count(
            chan, ("send", "try_send", "close"), exclude=t)
        # a buffered channel the same goroutine fed earlier still feeds
        # this recv
        prior_self = 0
        path = t.paths[pi]
        if (chan.capacity or 0) > 0:
            prior_self = sum(1 for p in path.ops[:oi]
                             if p.obj is chan and p.kind in _SEND_KINDS)
        if senders + prior_self == 0 and not flagged_no_sender:
            flagged_no_sender = True
            what = "range over" if op.kind == "range" else op.kind
            out.append(_finding(
                "recv-no-sender",
                f"blocking {what} {chan.name} but no other goroutine "
                "can ever send or close it",
                chan, op.line, t.name))
        if op.kind == "range" and senders > 0:
            closes = model.potential_count(chan, ("close",))
            sends = model.potential_count(chan, _SEND_KINDS)
            if closes == 0 and sends != INF:
                out.append(_finding(
                    "range-no-close",
                    f"range over {chan.name} but the channel is never "
                    "closed: the loop blocks after the last send",
                    chan, op.line, t.name))
        if op.kind == "recv" and op.mult == MANY:
            closes_elsewhere = model.potential_count(
                chan, ("close",), exclude=t)
            if closes_elsewhere > 0:
                out.append(_finding(
                    "recv-ignores-close",
                    f"looping plain recv on {chan.name} which another "
                    "goroutine closes: zero values after close are "
                    "indistinguishable from real messages (use "
                    "recv_ok or range)",
                    chan, op.line, t.name))
    return out


def _send_rules(model: ProgramModel, chan: AbstractObj
                ) -> List[StaticFinding]:
    out = []
    cap = chan.capacity or 0
    sends_total = model.potential_count(chan, _SEND_KINDS)
    done_no_recv = False
    done_abandoned = False
    for t, _pi, _oi, op in model.ops_on(chan, "send"):
        if not op.blocking:
            continue
        if sends_total <= cap:
            continue  # buffer absorbs every send: never blocks
        recvs = model.potential_count(chan, _RECV_KINDS, exclude=t)
        if recvs == 0:
            if not done_no_recv:
                done_no_recv = True
                out.append(_finding(
                    "send-no-recv",
                    f"blocking send on {chan.name} but no other "
                    "goroutine can ever receive from it",
                    chan, op.line, t.name))
            continue
        # Figure 1: every potential receiver sits in a select with a
        # live alternative, so the sender can be abandoned forever
        partners = _recv_positions(model, chan, exclude=t)
        if partners and all(
                _is_escapable_select(model, p_op, chan)
                for (_t2, _path, _i, p_op) in partners):
            if not done_abandoned:
                done_abandoned = True
                out.append(_finding(
                    "unbuffered-send-abandoned",
                    f"send on {chan.name} (capacity {cap}) can be "
                    "abandoned: every receiver is a select with a "
                    "live alternative arm",
                    chan, op.line, t.name))
    return out


def _recv_positions(model: ProgramModel, chan: AbstractObj,
                    exclude: ThreadModel
                    ) -> List[Tuple[ThreadModel, Path, int, Op]]:
    positions = []
    for t in model.threads:
        if t is exclude:
            continue
        for path in t.paths:
            for i, op in enumerate(path.ops):
                if op.obj is chan and op.kind in _RECV_KINDS:
                    positions.append((t, path, i, op))
                elif op.kind == "select" and any(
                        ak == "recv" and ac is chan for ak, ac in op.arms):
                    positions.append((t, path, i, op))
    return positions


def _is_escapable_select(model: ProgramModel, op: Op,
                         chan: AbstractObj) -> bool:
    """Can this receiver take a different arm and abandon the sender?"""
    if op.kind != "select":
        return False
    if op.has_default:
        return True
    for ak, ac in op.arms:
        if ac is chan:
            continue
        if _arm_live(model, ak, ac):
            return True
    return False


def _arm_live(model: ProgramModel, arm_kind: str,
              chan: AbstractObj) -> bool:
    if chan.nil:
        return False
    if chan.is_timer or chan.is_ticker:
        return True
    if chan.is_done:
        return _done_chan_live(model, chan)
    if arm_kind == "recv":
        return model.potential_count(chan, ("send", "try_send",
                                            "close")) > 0
    sends = model.potential_count(chan, _SEND_KINDS)
    if (chan.capacity or 0) >= sends and sends != INF:
        return True
    return model.potential_count(chan, _RECV_KINDS) > 0


def _count_rules(model: ProgramModel, chan: AbstractObj
                 ) -> List[StaticFinding]:
    """More blocking receives than messages that can ever arrive."""
    closes = model.potential_count(chan, ("close",))
    if closes > 0:
        return []
    sends = model.potential_count(chan, _SEND_KINDS)
    if sends == 0 or sends == INF:
        return []
    recvs = 0.0
    where: Optional[Tuple[str, int]] = None
    for t in model.threads:
        best = 0.0
        for path in t.paths:
            here = 0.0
            for op in path.ops:
                if op.obj is chan and op.kind in ("recv", "recv_ok") \
                        and op.blocking:
                    here = INF if (op.mult == MANY or t.mult == MANY) \
                        else here + 1
                    if where is None:
                        where = (t.name, op.line)
        # max over paths: a path that may execute sets the demand
            best = max(best, here)
        recvs += best
    if recvs != INF and recvs > sends and where is not None:
        return [_finding(
            "insufficient-senders",
            f"{int(recvs)} blocking receives on {chan.name} but at most "
            f"{int(sends)} sends and no close: the surplus recv blocks "
            "forever",
            chan, where[1], where[0])]
    return []


# -- close discipline --------------------------------------------------

def _close_rules(model: ProgramModel) -> List[StaticFinding]:
    out: List[StaticFinding] = []
    for chan in _plain_chans(model):
        closes = model.ops_on(chan, "close")
        if not closes:
            continue
        # double / racy close: more than one close can actually execute
        effective = 0.0
        for t, _pi, _oi, op in closes:
            if op.in_once:
                continue
            effective = INF if (op.mult == MANY or t.mult == MANY) \
                else effective + 1
        close_threads = {t.key for t, _pi, _oi, op in closes
                         if not op.in_once}
        if effective > 1 and len(close_threads) > 1:
            t0, _pi, _oi, op0 = closes[0]
            out.append(_finding(
                "racy-close",
                f"{chan.name} can be closed by more than one goroutine "
                "(close of a closed channel panics)",
                chan, op0.line, t0.name))
        elif effective > 1:
            # all in one thread: double close on one path?
            for t in model.threads:
                for path in t.paths:
                    n = sum(1 for op in path.ops
                            if op.obj is chan and op.kind == "close"
                            and not op.in_once)
                    if n > 1:
                        out.append(_finding(
                            "double-close",
                            f"{chan.name} closed twice on one path",
                            chan, path.ops[-1].line, t.name))
                        break
                else:
                    continue
                break
        out += _send_after_close(model, chan, closes)
    return out


def _send_after_close(model: ProgramModel, chan: AbstractObj,
                      closes) -> List[StaticFinding]:
    out = []
    for t, _pi, _oi, sop in model.ops_on(chan, "send", "try_send"):
        for t2, pi2, oi2, cop in closes:
            if t2 is t:
                # sequential: only a definite bug if close precedes send
                path = t.paths[pi2]
                try:
                    if path.ops.index(cop) < path.ops.index(sop):
                        out.append(_finding(
                            "send-after-close",
                            f"send on {chan.name} after closing it on "
                            "the same path",
                            chan, sop.line, t.name))
                        return out
                except ValueError:
                    pass
                continue
            if _hb_ordered(model, t, sop, t2, cop):
                continue
            common = {mu.oid for mu, _m in sop.lockset} & \
                     {mu.oid for mu, _m in cop.lockset}
            if common:
                continue
            out.append(_finding(
                "close-then-send",
                f"send on {chan.name} races with close in another "
                "goroutine: send on a closed channel panics",
                chan, sop.line, t.name))
            return out
    return out


def _hb_ordered(model: ProgramModel, t_send: ThreadModel, sop: Op,
                t_close: ThreadModel, cop: Op) -> bool:
    """Is every send forced to happen before the close?

    Two cheap orderings: the closer waits on a WaitGroup that the
    sender's goroutine signals *after* its sends, or the closer is the
    sender's spawner and closes only after a wg-wait / after recv'ing
    everything.  We approximate with the wg edge only — it is the
    pattern the corpus's fixed variants use.
    """
    for path in t_send.paths:
        try:
            si = path.ops.index(sop)
        except ValueError:
            continue
        done_after = [i for i, op in enumerate(path.ops)
                      if op.kind == "wg_done" and i >= si]
        if not done_after:
            return False
        wgs = {path.ops[i].obj.oid for i in done_after}
        for path2 in t_close.paths:
            try:
                ci = path2.ops.index(cop)
            except ValueError:
                continue
            waited = any(op.kind == "wg_wait" and op.obj.oid in wgs
                         for op in path2.ops[:ci])
            if not waited:
                return False
    return True


# -- select shapes -----------------------------------------------------

def _select_rules(model: ProgramModel) -> List[StaticFinding]:
    out: List[StaticFinding] = []
    for t, pi, oi, op in model.all_ops():
        if op.kind != "select" or not op.arms:
            continue
        if op.has_default:
            out += _default_only_consumer(model, t, op)
            continue
        if all(not _arm_live(model, ak, ac) for ak, ac in op.arms):
            names = ", ".join(ac.name for _ak, ac in op.arms)
            out.append(_finding(
                "select-no-live-case",
                f"select with no default and no live arm ({names}): "
                "blocks forever",
                None, op.line, t.name))
            continue
        out += _tick_vs_stop(model, t, t.paths[pi], oi, op)
    return out


def _default_only_consumer(model: ProgramModel, t: ThreadModel,
                           op: Op) -> List[StaticFinding]:
    """A polling select is the *only* consumer of a fed channel.

    The paper's poll-vs-wait misuse: a default branch where blocking
    was intended.  When no blocking receive of the channel exists
    anywhere, the poller can decide the channel is idle and give up
    before the producer ever runs.  A non-blocking *precheck* (the
    Figure 11 fix) is fine: the same channel is also consumed by a
    blocking select or recv elsewhere.
    """
    out = []
    for ak, chan in op.arms:
        if ak != "recv" or chan.nil or chan.is_timer or chan.is_ticker \
                or chan.is_done:
            continue
        # real data must arrive: a close-only feeder is a completion
        # signal the poll legitimately prechecks (Docker #24007)
        feeders = model.potential_count(
            chan, ("send", "try_send"), exclude=t)
        if feeders == 0:
            continue
        blocking_elsewhere = False
        for t2, _pi, _oi, op2 in model.all_ops():
            if op2 is op:
                continue
            if op2.obj is chan and op2.kind in ("recv", "recv_ok",
                                                "range") and op2.blocking:
                blocking_elsewhere = True
                break
            if op2.kind == "select" and not op2.has_default and any(
                    ak2 == "recv" and ac2 is chan
                    for ak2, ac2 in op2.arms):
                blocking_elsewhere = True
                break
        if not blocking_elsewhere:
            out.append(_finding(
                "select-default-poll",
                f"the polling select is the only consumer of "
                f"{chan.name}: the default branch turns a wait into a "
                "poll that can give up before the producer runs",
                chan, op.line, t.name))
            return out
    return out


def _tick_vs_stop(model: ProgramModel, t: ThreadModel, path: Path,
                  oi: int, op: Op) -> List[StaticFinding]:
    """Figure 11: ticker arm races a stop arm inside an unbounded loop.

    When both a periodic arm (ticker) and a closed-elsewhere stop arm
    are ready, select picks randomly, so the loop may survive the stop
    indefinitely — unless the body prechecks the stop channel with a
    non-blocking select first.
    """
    if op.mult != MANY:
        return []
    tick_arms = [ac for ak, ac in op.arms if ac.is_ticker]
    stop_arms = [ac for ak, ac in op.arms
                 if not (ac.is_ticker or ac.is_timer)
                 and ak == "recv"
                 and model.potential_count(ac, ("close",), exclude=t) > 0]
    if not tick_arms or not stop_arms:
        return []
    for prior in path.ops[:oi]:
        if prior.kind == "select" and prior.has_default and any(
                ac in stop_arms for _ak, ac in prior.arms):
            return []  # prechecked: the fix pattern
    return [_finding(
        "select-tick-vs-stop",
        f"looped select chooses randomly between ticker "
        f"{tick_arms[0].name} and stop {stop_arms[0].name}: stop may "
        "lose every round (precheck the stop channel non-blockingly)",
        stop_arms[0], op.line, t.name)]


# -- WaitGroup discipline ----------------------------------------------

def _wg_rules(model: ProgramModel) -> List[StaticFinding]:
    out: List[StaticFinding] = []
    for wg in model.objects_of_kind("wg"):
        out += _wg_counts(model, wg)
        out += _wg_premature_wait(model, wg)
        out += _wg_add_concurrent_wait(model, wg)
        out += _wg_wait_before_drain(model, wg)
    return out


def _wg_counts(model: ProgramModel, wg: AbstractObj
               ) -> List[StaticFinding]:
    """More Done calls than Add'ed: the counter goes negative."""
    adds = 0.0
    for t in model.threads:
        best = 0.0
        for path in t.paths:
            here = 0.0
            for op in path.ops:
                if op.kind == "wg_add" and op.obj is wg:
                    if op.delta is None:
                        return []  # unknown delta: stay quiet
                    here = INF if (op.mult == MANY or t.mult == MANY) \
                        else here + op.delta
            best = max(best, here)
        adds += best
    dones = model.potential_count(wg, ("wg_done",))
    if adds != INF and dones != INF and dones > adds:
        where = model.ops_on(wg, "wg_done")[-1]
        return [_finding(
            "wg-extra-done",
            f"up to {int(dones)} wg.done but only {int(adds)} added on "
            f"{wg.name}: the counter can go negative (panic)",
            wg, where[3].line, where[0].name)]
    return []


def _wg_premature_wait(model: ProgramModel, wg: AbstractObj
                       ) -> List[StaticFinding]:
    """Wait reached while fewer Done calls are reachable than Added."""
    out = []
    for t in model.threads:
        for path in t.paths:
            adds = 0.0
            dones_local = 0.0
            finding = None
            for i, op in enumerate(path.ops):
                if op.kind == "wg_add" and op.obj is wg:
                    if op.delta is None:
                        adds = INF
                    elif adds != INF:
                        adds += op.delta * (INF if op.mult == MANY else 1)
                elif op.kind == "wg_done" and op.obj is wg:
                    dones_local += INF if op.mult == MANY else 1
                elif op.kind == "wg_wait" and op.obj is wg:
                    if adds in (0.0, INF):
                        continue
                    avail = dones_local + _spawned_dones(
                        model, t, path, i, wg)
                    if adds > avail:
                        finding = _finding(
                            "wg-premature-wait",
                            f"wg.wait on {wg.name} with {int(adds)} "
                            f"added but at most "
                            f"{int(avail) if avail != INF else avail} "
                            "done calls reachable before it",
                            wg, op.line, t.name)
                        break
            if finding is not None:
                out.append(finding)
                return out
    return out


def _spawned_dones(model: ProgramModel, t: ThreadModel, path: Path,
                   wait_idx: int, wg: AbstractObj) -> float:
    """Done calls reachable from threads spawned before the wait."""
    total = 0.0
    keys = [op.detail for op in path.ops[:wait_idx]
            if op.kind == "spawn"]
    seen = set()
    while keys:
        key = keys.pop()
        if key in seen:
            continue
        seen.add(key)
        child = model.thread(key)
        if child is None:
            continue
        best = 0.0
        for cpath in child.paths:
            here = 0.0
            for op in cpath.ops:
                if op.kind == "wg_done" and op.obj is wg:
                    here = INF if (op.mult == MANY or child.mult == MANY) \
                        else here + 1
                elif op.kind == "spawn":
                    keys.append(op.detail)
            best = max(best, here)
        total += best
    return total


def _wg_add_concurrent_wait(model: ProgramModel, wg: AbstractObj
                            ) -> List[StaticFinding]:
    """Figure 9: an Add that nothing orders before a concurrent Wait.

    Safe shapes: add and wait in the same goroutine, an ancestor's add
    strictly before the spawn chain leading to the waiter (spawn edge),
    or — the committed etcd#6371 fix — add and wait both inside the
    same critical section.
    """
    out = []
    for t, pi, oi, op in model.ops_on(wg, "wg_add"):
        for t2, pi2, oi2, wop in model.ops_on(wg, "wg_wait"):
            if t2 is t:
                continue
            if _spawn_ordered(model, t, t.paths[pi], oi, t2):
                continue
            add_locks = {mu.oid for mu, _m in op.lockset}
            wait_locks = {mu.oid for mu, _m in wop.lockset}
            if add_locks & wait_locks:
                continue
            out.append(_finding(
                "wg-add-concurrent-wait",
                f"wg.add on {wg.name} in {t.name} is unordered with "
                f"the wg.wait in {t2.name}: the wait can return before "
                "the add lands",
                wg, op.line, t.name))
            return out
    return out


def _spawn_ordered(model: ProgramModel, t: ThreadModel, path: Path,
                   op_i: int, other: ThreadModel) -> bool:
    """Is ``path.ops[op_i]`` ordered before everything in ``other`` by
    the spawn chain from ``t`` down to ``other``?"""
    if path.ops[op_i].mult == MANY:
        return False
    chain = []
    cur: Optional[ThreadModel] = other
    while cur is not None and cur.parent_key is not None:
        chain.append((cur.parent_key, cur.key))
        cur = model.thread(cur.parent_key)
    for parent_key, child_key in chain:
        if parent_key == t.key:
            si = model.spawn_index(t, path, child_key)
            return si is not None and op_i < si
    return False


def _wg_wait_before_drain(model: ProgramModel, wg: AbstractObj
                          ) -> List[StaticFinding]:
    """Workers block sending before Done; receiver recvs only after Wait."""
    out = []
    for t, pi, oi, wop in model.ops_on(wg, "wg_wait"):
        path = t.paths[pi]
        # spawn order, not set order: the finding names the first worker
        spawned = dict.fromkeys(op.detail for op in path.ops[:oi]
                                if op.kind == "spawn")
        for key in spawned:
            worker = model.thread(key)
            if worker is None:
                continue
            for wpath in worker.paths:
                done_idx = next((i for i, op in enumerate(wpath.ops)
                                 if op.kind == "wg_done"
                                 and op.obj is wg), None)
                if done_idx is None:
                    continue
                for i in range(done_idx):
                    sop = wpath.ops[i]
                    if sop.kind != "send" or not sop.blocking \
                            or sop.obj is None:
                        continue
                    chan = sop.obj
                    cap = chan.capacity or 0
                    sends = model.potential_count(chan, _SEND_KINDS)
                    if sends <= cap:
                        continue
                    if _drained_only_after(model, chan, t, path, oi,
                                           worker):
                        out.append(_finding(
                            "wg-wait-before-drain",
                            f"worker {worker.name} must send on "
                            f"{chan.name} before wg.done, but the only "
                            "receiver drains it after wg.wait",
                            wg, wop.line, t.name))
                        return out
    return out


def _drained_only_after(model: ProgramModel, chan: AbstractObj,
                        waiter: ThreadModel, wpath: Path, wait_idx: int,
                        worker: ThreadModel) -> bool:
    for t in model.threads:
        if t is worker:
            continue
        for path in t.paths:
            for i, op in enumerate(path.ops):
                hits = (op.obj is chan and op.kind in _RECV_KINDS) or (
                    op.kind == "select" and any(
                        ak == "recv" and ac is chan
                        for ak, ac in op.arms))
                if not hits:
                    continue
                if t is waiter and path is wpath and i > wait_idx:
                    continue  # after the wait: cannot help
                return False  # a live drain elsewhere
    return True


# -- Cond --------------------------------------------------------------

def _cond_rules(model: ProgramModel) -> List[StaticFinding]:
    out = []
    for cond in model.objects_of_kind("cond"):
        waits = model.ops_on(cond, "cond_wait")
        if not waits:
            continue
        signals = model.ops_on(cond, "cond_signal", "cond_broadcast")
        t, _pi, _oi, op = waits[0]
        if not signals:
            out.append(_finding(
                "cond-no-signal",
                f"cond.wait on {cond.name} but nothing ever signals "
                "or broadcasts it",
                cond, op.line, t.name))
    return out


# -- context cancel handles --------------------------------------------

def _ctx_rules(model: ProgramModel) -> List[StaticFinding]:
    out = []
    roots = set()
    for ctx in model.objects_of_kind("ctx"):
        if ctx.attrs.get("used_as_parent"):
            cancel = ctx.attrs.get("cancel")
            if isinstance(cancel, AbstractObj):
                roots.add(cancel.oid)
    for cancel in model.objects_of_kind("cancel"):
        if cancel.cancel_called or cancel.auto_cancel:
            continue
        if cancel.oid in roots:
            # a context that parents other contexts is a lifetime root;
            # its cancel living as long as the program is intentional
            continue
        out.append(_finding(
            "ctx-cancel-leak",
            f"cancel handle {cancel.name} is never called: the "
            "context's resources and any done()-waiters leak",
            cancel, cancel.line))
    return out


# -- pipes -------------------------------------------------------------

def _pipe_rules(model: ProgramModel) -> List[StaticFinding]:
    out = []
    for pr in model.objects_of_kind("pipe_r"):
        pw = pr.peer
        if pw is None:
            continue
        reads = model.potential_count(pr, ("pipe_read",))
        writes = model.potential_count(pw, ("pipe_write",))
        r_closes = model.potential_count(pr, ("pipe_close",))
        w_closes = model.potential_count(pw, ("pipe_close",))
        if writes > reads and r_closes == 0 and writes != INF:
            t, _pi, _oi, op = model.ops_on(pw, "pipe_write")[0]
            out.append(_finding(
                "pipe-writer-stuck",
                f"up to {int(writes)} pipe writes but only "
                f"{int(reads) if reads != INF else reads} reads and "
                "the read end is never closed: the writer blocks "
                "forever",
                pw, op.line, t.name))
        if reads > writes and w_closes == 0 and reads != INF:
            t, _pi, _oi, op = model.ops_on(pr, "pipe_read")[0]
            out.append(_finding(
                "pipe-reader-stuck",
                f"up to {int(reads)} pipe reads but only "
                f"{int(writes) if writes != INF else writes} writes "
                "and the write end is never closed: the reader blocks "
                "forever",
                pr, op.line, t.name))
        if reads == INF and w_closes == 0:
            t, _pi, _oi, op = model.ops_on(pr, "pipe_read")[0]
            out.append(_finding(
                "pipe-reader-stuck",
                f"unbounded pipe reads on {pr.name} but the write end "
                "is never closed: the final read blocks forever",
                pr, op.line, t.name))
    return out


# -- timers ------------------------------------------------------------

def _timer_rules(model: ProgramModel) -> List[StaticFinding]:
    out = []
    for t, _pi, _oi, op in model.all_ops():
        if op.kind == "timer_new" and op.delta == 0:
            out.append(_finding(
                "timer-zero-duration",
                f"timer {op.obj.name} created with zero duration "
                "fires immediately: a zero timeout should disable the "
                "timeout arm (nil channel), not trigger it",
                op.obj, op.line, t.name))
    return out
