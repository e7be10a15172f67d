"""The network fabric: named nodes, per-link latency, partitions, loss.

A :class:`Network` is a deterministic message fabric on top of the virtual
clock.  Nodes register by name; listeners bind ``"node:port"`` addresses;
connections exchange discrete messages whose delivery is scheduled as
virtual-clock timers.  Because the clock's timer heap breaks ties by
creation order and every chance draw (loss, duplication, reordering) comes
from one RNG derived from the run seed, the same ``(seed, topology, plan)``
triple always produces the same message log, byte for byte.

Fault surface (driven programmatically or by :mod:`repro.inject` plans):

* ``partition(groups)`` / ``heal()`` — only nodes in the same group can
  exchange messages; messages already in flight across a new partition
  boundary are dropped at delivery time, like packets on a cut cable.
* per-link drop / duplicate / reorder probabilities and extra delay,
  keyed by ``"src->dst"`` glob patterns so one rule can degrade a whole
  node's links.
"""

from __future__ import annotations

import random
import zlib
from fnmatch import fnmatchcase
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..runtime.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime
    from .conn import Listener, _Pipe
    from .disk import Disk
    from .node import Node


class NetError(Exception):
    """A network-level failure (refused, unreachable, closed listener)."""


class Link:
    """Directed link state between two named nodes."""

    __slots__ = ("src", "dst", "latency", "drop", "duplicate", "reorder",
                 "extra_delay", "jitter")

    def __init__(self, src: str, dst: str, latency: float):
        self.src = src
        self.dst = dst
        self.latency = latency
        self.drop = 0.0       # probability a message is lost
        self.duplicate = 0.0  # probability a message is delivered twice
        self.reorder = 0.0    # probability a message gets jittered out of order
        self.extra_delay = 0.0
        self.jitter = 0.0     # max extra delay drawn for reordered messages

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def __repr__(self) -> str:
        return f"<Link {self.name} latency={self.latency:g}>"


#: Rule kinds accepted by :meth:`Network.set_fault_rate`.
FAULT_RATE_KINDS = ("drop", "duplicate", "reorder", "delay")


class Network:
    """One deterministic message fabric.  Create via ``rt.network()``."""

    def __init__(self, rt: "Runtime", name: Optional[str] = None, *,
                 default_latency: float = 0.001,
                 log_messages: bool = True):
        index = len(rt._networks)
        self._rt = rt
        self._sched = rt.sched
        self.name = name or f"net{index}"
        self.default_latency = default_latency
        self.log_messages = log_messages
        self.nodes: Dict[str, "Node"] = {}
        #: Durable per-node storage, keyed by node name.  Disks outlive the
        #: node objects' crash/restart lifecycle, like real machines.
        self._disks: Dict[str, "Disk"] = {}
        self._listeners: Dict[str, "Listener"] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: Active partition: a list of node-name frozensets.  Empty = healed.
        self._partitions: List[frozenset] = []
        #: Injected rate rules: (kind, link glob) -> value.  Keyed so a
        #: recurring fault re-applying the same rule stays idempotent.
        self._rules: Dict[Tuple[str, str], float] = {}
        # Fabric chance draws (loss/dup/reorder coins) come from their own
        # RNG derived from the run seed and a stable hash of the fabric
        # name: independent of the scheduler's RNG, so wiring a fabric into
        # a program perturbs schedules only through actual message timing.
        self._rng = random.Random(
            rt.sched.seed * 1_000_003 + zlib.crc32(self.name.encode()) )
        self._next_msg = 0
        self._log: List[str] = []
        self.stats: Dict[str, int] = {
            "sent": 0, "delivered": 0, "dropped": 0, "duplicated": 0,
            "dials": 0,
        }

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def register(self, node: "Node") -> None:
        if node.name in self.nodes:
            raise NetError(f"duplicate node name {node.name!r} on {self.name}")
        self.nodes[node.name] = node

    def disk(self, name: str, *, fsync_latency: float = 0.0) -> "Disk":
        """The durable :class:`repro.net.disk.Disk` for node ``name``
        (created on first access; survives node crash/restart)."""
        from .disk import Disk

        disk = self._disks.get(name)
        if disk is None:
            disk = Disk(self._rt, name, fsync_latency=fsync_latency)
            self._disks[name] = disk
        return disk

    def has_disk(self, name: str) -> bool:
        return name in self._disks

    def node_crashed(self, node: "Node", lost_writes: int) -> None:
        """Record a crash-stop in the message log (called by Node.crash)."""
        self._sched.emit(EventKind.NET_NODE_CRASH, gid=0,
                         info={"net": self.name, "node": node.name,
                               "lost_writes": lost_writes})
        self._log_line(f"CRSH {node.name} lost={lost_writes}")

    def node_restarted(self, node: "Node") -> None:
        """Record a restart in the message log (called by Node.restart)."""
        self._sched.emit(EventKind.NET_NODE_RESTART, gid=0,
                         info={"net": self.name, "node": node.name,
                               "incarnation": node.incarnation})
        self._log_line(f"BOOT {node.name} #{node.incarnation}")

    def link(self, src: str, dst: str) -> Link:
        """The directed link record for ``src -> dst`` (created on demand)."""
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = Link(src, dst, self.default_latency)
            self._links[key] = link
        return link

    def set_latency(self, src: str, dst: str, latency: float,
                    symmetric: bool = True) -> None:
        self.link(src, dst).latency = latency
        if symmetric:
            self.link(dst, src).latency = latency

    # ------------------------------------------------------------------
    # Faults: partitions and link degradation
    # ------------------------------------------------------------------

    def partition(self, *groups) -> None:
        """Split the fabric: only nodes in the same group stay connected.

        Nodes named in no group are unaffected (reachable from everywhere).
        In-flight messages that cross a new boundary are dropped when their
        delivery timer fires.
        """
        self._partitions = [frozenset(group) for group in groups]
        rendered = [sorted(group) for group in self._partitions]
        self._sched.emit(EventKind.NET_PARTITION, gid=0,
                         info={"net": self.name, "groups": rendered})
        self._log_line(f"PART {rendered}")

    def heal(self) -> None:
        """Remove the partition; subsequent sends flow everywhere again."""
        self._partitions = []
        self._sched.emit(EventKind.NET_HEAL, gid=0, info={"net": self.name})
        self._log_line("HEAL")

    @property
    def partitioned(self) -> bool:
        return bool(self._partitions)

    def reachable(self, src: str, dst: str) -> bool:
        if src == dst or not self._partitions:
            return True
        src_group = dst_group = None
        for group in self._partitions:
            if src in group:
                src_group = group
            if dst in group:
                dst_group = group
        if src_group is None or dst_group is None:
            return True
        return src_group is dst_group

    def set_fault_rate(self, kind: str, pattern: str, value: float) -> None:
        """Apply a rate rule to every link matching ``pattern`` (a glob
        over ``"src->dst"`` names).  ``kind``: drop | duplicate | reorder |
        delay (extra seconds).  ``value=0`` removes the rule."""
        if kind not in FAULT_RATE_KINDS:
            raise ValueError(f"unknown fault rate kind {kind!r}")
        if value:
            self._rules[(kind, pattern)] = value
        else:
            self._rules.pop((kind, pattern), None)

    def _effective(self, link: Link) -> Tuple[float, float, float, float]:
        """(drop, duplicate, reorder, extra_delay) after rate rules."""
        drop, dup = link.drop, link.duplicate
        reorder, extra = link.reorder, link.extra_delay
        name = link.name
        for (kind, pattern), value in self._rules.items():
            if not fnmatchcase(name, pattern):
                continue
            if kind == "drop":
                drop = max(drop, value)
            elif kind == "duplicate":
                dup = max(dup, value)
            elif kind == "reorder":
                reorder = max(reorder, value)
            else:
                extra += value
        return drop, dup, reorder, extra

    # ------------------------------------------------------------------
    # Message transport (called by repro.net.conn)
    # ------------------------------------------------------------------

    def transmit(self, pipe: "_Pipe", payload: Any) -> None:
        """Schedule delivery of one message on a pipe (sender context).

        Draws, in this order: drop, then duplicate, then reorder for each
        copy.  An in-order copy joins the pipe's ``landing`` queue and its
        timer fires the pipe's bound ``land``, so it costs no callback
        object; a reorder-jittered copy may overtake, so its timer carries
        the message itself.  Trace payloads and log lines are built only
        when someone reads them (``trace.active`` / ``log_messages``): an
        untraced, unlogged send does the fabric's own work and nothing
        else.
        """
        sched = self._sched
        link = pipe.link
        if link is None:
            link = pipe.link = self.link(pipe.src, pipe.dst)
        if self._rules:
            drop, dup, reorder, extra = self._effective(link)
        else:
            drop, dup = link.drop, link.duplicate
            reorder, extra = link.reorder, link.extra_delay
        now = sched.clock.now
        seq = self._next_msg
        self._next_msg = seq + 1
        stats = self.stats
        stats["sent"] += 1
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
            stats["dropped"] += 1
            if traced:
                sched.emit(EventKind.NET_DROP, gid=0, obj=pipe.obj,
                           info={"link": pipe.name, "seq": seq,
                                 "reason": "loss"})
            if logged:
                self._log_line(f"DROP {pipe.name} #{seq} loss")
            return

        msg = (seq, payload, now)
        deliver_at = now + link.latency + extra
        if dup and rng.random() < dup:
            stats["duplicated"] += 1
            if logged:
                self._log_line(f"DUP  {pipe.name} #{seq}")
            self._launch(pipe, link, msg, deliver_at, reorder)
        self._launch(pipe, link, msg, deliver_at, reorder)

    def _launch(self, pipe: "_Pipe", link: Link, msg: Tuple[int, Any, float],
                deliver_at: float, reorder: float) -> None:
        """Arm the landing timer of one copy of ``msg``."""
        rng = self._rng
        pipe.in_flight += 1
        if reorder and rng.random() < reorder:
            jitter = link.jitter or 2.0 * (link.latency or 0.001)
            self._sched.clock.call_at(deliver_at + rng.uniform(0.0, jitter),
                                      partial(pipe.land, msg))
            return
        # FIFO per pipe: a message never overtakes its predecessor unless
        # the reorder fault explicitly jitters it.
        if deliver_at < pipe.last_deliver:
            deliver_at = pipe.last_deliver
        pipe.last_deliver = deliver_at
        pipe.landing.append(msg)
        self._sched.clock.call_at(deliver_at, pipe.land)

    # ------------------------------------------------------------------
    # Listener registry (bound/unbound by repro.net.conn)
    # ------------------------------------------------------------------

    def bind(self, addr: str, listener: "Listener") -> None:
        if addr in self._listeners:
            raise NetError(f"address already in use: {addr}")
        self._listeners[addr] = listener

    def unbind(self, addr: str) -> None:
        self._listeners.pop(addr, None)

    def lookup(self, addr: str) -> Optional["Listener"]:
        return self._listeners.get(addr)

    def _teardown(self) -> None:
        """End-of-run teardown: nodes and listeners point back at this
        fabric, so drop the tables that point at them, and each node's
        restart hook (it usually points back at the node's owner)."""
        for node in self.nodes.values():
            node.on_restart = None
        self.nodes.clear()
        self._listeners.clear()

    # ------------------------------------------------------------------
    # Message log
    # ------------------------------------------------------------------

    def _log_line(self, text: str) -> None:
        # Hot paths (transmit, _Pipe.land) test ``log_messages`` before
        # formatting ``text``; the check here covers the cold callers.
        if self.log_messages:
            self._log.append(f"{self._sched.clock.now:.6f} {text}")

    def format_message_log(self) -> str:
        """The full fabric history as one string — byte-identical across
        runs of the same ``(seed, topology, plan)``."""
        return "\n".join(self._log)

    def __repr__(self) -> str:
        return (f"<Network {self.name!r} nodes={len(self.nodes)} "
                f"sent={self.stats['sent']}>")
