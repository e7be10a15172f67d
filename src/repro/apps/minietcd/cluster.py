"""A multi-node minietcd cluster over :mod:`repro.net`.

Three (by default) members, each a full single-node :class:`Node` (store +
watch hub + lessor) running an RPC server on its own simulated machine.
Member ``n1`` is the static leader — this models etcd's steady state, not
its election protocol: writes go to the leader, which applies locally and
replicates asynchronously to each follower over the wire through a
per-follower queue + replicator goroutine that retries with seeded backoff
until the follower acknowledges.

That replication loop is exactly the paper's hardened-communication shape:
a partition stalls a follower's queue (calls time out, backoff grows), and
after ``heal()`` the replicator drains and the cluster re-converges — no
goroutine leaks, no stranded handlers, because every blocking path hangs
off a ``Conn`` or channel that node shutdown closes.

Reads are served locally by any member (followers may lag: etcd's
serializable-not-linearizable read).  Watches and range queries stream
over the RPC layer; leases are granted by the leader and expire on its
virtual clock.

**Crash recovery** (opt-in, ``EtcdCluster(durable=True, elect=True)``):
durable members write every applied put to a per-machine
:class:`repro.net.disk.Disk` WAL (append + fsync) and recover by replaying
it from a fresh boot goroutine after ``node.restart()`` — whatever was not
fsynced at crash time is gone, exactly like a real power cut.  With
``elect=True`` an election watchdog promotes the lowest-indexed live member
when the leader dies; promotion union-merges live peers' state (the
simulator's stand-in for Raft log catch-up — the new leader pulls follower
dumps directly, keeping its own value on conflict) and then resyncs every
follower through the ordinary replication queues.  Durable members skip the
single-node background loops (compactor, lessor expiry): those goroutines
are owned by the runtime, not the member's machine, and would outlive a
crash to operate on a dead incarnation's store.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ...net.fabric import NetError, Network
from ...net.node import Node as NetNode
from ...net.rpc import RpcClient, RpcError, RpcServer, Status, connect_with_retry
from ...patterns.resilience import Backoff
from ...runtime.errors import GoPanic
from .lease import Lease
from .node import Node as KvNode

#: Listener port every member binds.
PORT = "etcd"


class ClusterMember:
    """One cluster machine: a kv node fronted by an RPC server.

    With ``durable=True`` every applied put is WAL-logged (append + fsync)
    to the machine's disk, the node gets an ``on_restart`` recovery hook,
    and the single-node background loops are not started (see the module
    docstring) — leases on a durable member are granted but never expire.
    """

    def __init__(self, rt, net: Network, name: str,
                 compaction_interval: float = 5.0, durable: bool = False,
                 fsync_latency: float = 0.0,
                 cluster: Optional["EtcdCluster"] = None):
        self._rt = rt
        self.name = name
        self.durable = durable
        self._compaction_interval = compaction_interval
        self.kv = KvNode(rt, compaction_interval=compaction_interval)
        if not durable:
            self.kv.start()
        self.node = NetNode(net, name)
        self.addr = self.node.addr(PORT)
        self.disk = self.node.disk(fsync_latency=fsync_latency) \
            if durable else None
        if durable:
            # The cluster is reached only through the node's restart hook,
            # which the fabric drops at the end of the run: a member ->
            # cluster attribute would make the pair a reference cycle.
            def on_restart(node: NetNode) -> None:
                self._on_restart(node)
                if cluster is not None:
                    cluster._member_restarted(self)

            self.node.on_restart = on_restart
        self.is_leader = False
        self._leases: Dict[int, Lease] = {}
        self._next_lease = 0
        self._repl_queues: Dict[str, Any] = {}
        self.replicated = rt.atomic_int(0, name=f"{name}.replicated")
        self._wire_server()

    def _wire_server(self) -> None:
        """Build the RPC server and bind the listener (also the restart
        path: the old incarnation's listener died with the crash)."""
        server = RpcServer(self.node, name="etcd")
        server.register("get", lambda key: self.kv.get(key))
        server.register("put", self._rpc_put)
        server.register("replicate", self._rpc_replicate)
        server.register("lease_grant", self._rpc_lease_grant)
        server.register_streaming("range", self._rpc_range)
        server.register_streaming("watch", self._rpc_watch)
        server.serve(self.node.listen(PORT))

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def _apply(self, key: str, value: Any,
               lease: Optional[Lease] = None) -> int:
        """Apply a put locally; durable members WAL it (append + fsync).

        The fsync sits *after* the in-memory apply: with a non-zero fsync
        latency there is a window where the store has the write but the
        disk does not — a crash in that window loses it, the real
        lost-update anatomy convergence checkers must catch.
        """
        revision = self.kv.put(key, value, lease=lease)
        if self.disk is not None:
            self.disk.append(("put", key, value))
            self.disk.fsync()
        return revision

    def _rpc_put(self, payload: Dict[str, Any]) -> int:
        if not self.is_leader:
            raise RpcError(Status.FAILED_PRECONDITION,
                           f"{self.name} is not the leader")
        key, value = payload["key"], payload["value"]
        lease = self._leases.get(payload["lease"]) \
            if payload.get("lease") is not None else None
        revision = self._apply(key, value, lease=lease)
        for queue in self._repl_queues.values():
            queue.send((key, value))
        return revision

    def _rpc_replicate(self, payload: Any) -> bool:
        key, value = payload
        self._apply(key, value)
        self.replicated.add(1)
        return True

    def _rpc_lease_grant(self, ttl: float) -> int:
        if not self.is_leader:
            raise RpcError(Status.FAILED_PRECONDITION,
                           f"{self.name} is not the leader")
        lease = self.kv.grant_lease(ttl)
        self._next_lease += 1
        self._leases[self._next_lease] = lease
        return self._next_lease

    def _rpc_range(self, prefix: str, send: Callable[[Any], None]) -> None:
        for kv in self.kv.range(prefix or ""):
            send((kv.key, kv.value, kv.mod_revision))

    def _rpc_watch(self, payload: Dict[str, Any],
                   send: Callable[[Any], None]) -> None:
        prefix = payload.get("prefix", "")
        count = payload.get("count")
        watcher = self.kv.watch(prefix, buffer=16)
        sent = 0
        try:
            for event in watcher.events:
                send((event.kind, event.key, event.value, event.revision))
                sent += 1
                if count is not None and sent >= count:
                    return
        finally:
            self.kv.watch_hub.cancel(watcher)

    # ------------------------------------------------------------------
    # Leader-side replication
    # ------------------------------------------------------------------

    def become_leader(self, follower_addrs: List[str]) -> None:
        self.is_leader = True
        for addr in follower_addrs:
            self._add_follower(addr)

    def _add_follower(self, addr: str) -> None:
        """Create a replication queue + replicator for ``addr`` if this
        leader does not already have one (re-promotion must not spawn a
        second replicator over the same queue)."""
        if addr in self._repl_queues:
            return
        queue = self._rt.make_chan(256, name=f"repl:{self.name}->{addr}")
        self._repl_queues[addr] = queue

        # etcd-style anonymous closure; defaults pin the loop variables
        # (the Figure 8 hazard, done right).
        def replicate(addr=addr, queue=queue):
            self._replicate_loop(addr, queue)

        self.node.go(replicate, name=f"repl->{addr}")

    def resync(self, addr: str) -> int:
        """Push the full local dump into one follower's replication queue
        (non-blocking: the replicator delivers it like ordinary entries).
        The catch-up path for a follower that rejoined after a crash —
        its WAL replay restored only what it had fsynced.  Returns the
        number of entries enqueued."""
        queue = self._repl_queues.get(addr)
        if queue is None or queue.closed:
            return 0
        pushed = 0
        for key, value in sorted(self.dump().items()):
            if queue.try_send((key, value)):
                pushed += 1
        return pushed

    def _replicate_loop(self, addr: str, queue: Any) -> None:
        """Drain one follower's queue; retry each entry until acked.

        A partition makes every call time out — the entry is retried with
        growing seeded backoff until the fabric heals, so the follower
        eventually converges without ever dropping a write.
        """
        client: Optional[RpcClient] = None
        backoff = Backoff(self._rt, max_delay=1.0,
                          name=f"{self.name}->{addr}")
        for entry in queue:
            while not self.node.stopping:
                try:
                    if client is None:
                        client = RpcClient(self.node, addr,
                                           name=f"repl:{addr}")
                    client.call("replicate", entry, timeout=0.5)
                    backoff.reset()
                    break
                except (RpcError, NetError, GoPanic):
                    # A broken client (peer crashed: pump saw EOF) fails
                    # every call instantly — drop it so the next attempt
                    # redials the follower's new incarnation.
                    if client is not None and (client.conn.closed
                                               or client.broken):
                        client = None
                    backoff.sleep()
            if self.node.stopping:
                return

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def _on_restart(self, node: NetNode) -> None:
        """Recovery, run in the restarted node's boot goroutine.

        The old incarnation's store, queues and leadership are gone with
        its goroutines; state comes back only through the WAL.  Replay
        goes through ``kv.put`` directly (not :meth:`_apply`) so recovery
        does not re-log records the disk already holds.
        """
        self.kv = KvNode(self._rt,
                         compaction_interval=self._compaction_interval)
        for record in self.disk.replay():
            op, key, value = record
            if op == "put":
                self.kv.put(key, value)
        self.is_leader = False
        self._repl_queues = {}
        self._leases = {}
        self._wire_server()

    # ------------------------------------------------------------------

    def dump(self, prefix: str = "") -> Dict[str, Any]:
        """Local key -> value snapshot (for convergence checks)."""
        return {kv.key: kv.value for kv in self.kv.range(prefix)}

    def stop(self) -> None:
        for queue in self._repl_queues.values():
            if not queue.closed:
                queue.close()
        self.node.stop(wait=False)
        self.kv.stop()
        self.node.wg.wait()

    def __repr__(self) -> str:
        role = "leader" if self.is_leader else "follower"
        return f"<ClusterMember {self.name} {role}>"


class EtcdCluster:
    """A static-leader minietcd cluster on one fabric.

    ``durable=True`` gives every member a WAL-backed disk and a restart
    recovery path; ``elect=True`` adds an election watchdog that promotes
    the lowest-indexed live member when the leader dies (requires
    ``durable``).  Defaults preserve the original static, crash-naive
    cluster exactly.
    """

    def __init__(self, rt, size: int = 3, net: Optional[Network] = None,
                 latency: float = 0.002, compaction_interval: float = 5.0,
                 durable: bool = False, elect: bool = False,
                 fsync_latency: float = 0.0, elect_poll: float = 0.05):
        if size < 1:
            raise ValueError("cluster size must be >= 1")
        if elect and not durable:
            raise ValueError("elect=True requires durable=True")
        self._rt = rt
        self.durable = durable
        self.elect = elect
        self.net = net if net is not None else rt.network(
            name="etcdnet", default_latency=latency)
        self._roster = _Roster([
            ClusterMember(rt, self.net, f"n{i + 1}",
                          compaction_interval=compaction_interval,
                          durable=durable, fsync_latency=fsync_latency,
                          cluster=self if durable else None)
            for i in range(size)
        ])
        self.leader.become_leader([m.addr for m in self.members[1:]])
        self._clients: List["ClusterClient"] = []
        self._elect_stop = None
        if elect:
            self._elect_poll = elect_poll
            self._elect_stop = rt.make_chan(0, name="etcd.elect.stop")
            rt.go(self._election_loop, name="etcd.elect")

    @property
    def members(self) -> List[ClusterMember]:
        return self._roster.members

    @property
    def leader(self) -> ClusterMember:
        return self._roster.leader

    @leader.setter
    def leader(self, member: ClusterMember) -> None:
        self._roster.leader = member

    def client(self, name: str = "client",
               failover: bool = False) -> "ClusterClient":
        client = ClusterClient(self._rt, self, name=name, failover=failover)
        self._clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Leadership and recovery
    # ------------------------------------------------------------------

    def _election_loop(self) -> None:
        """Watchdog: promote the lowest-indexed live member when no live
        leader exists.  One goroutine, virtual-clock polling — the same
        crash, same seed, elects the same successor at the same time."""
        from ...chan.cases import recv as recv_case

        while True:
            timer = self._rt.new_timer(self._elect_poll)
            index, _, _ = self._rt.select(recv_case(self._elect_stop),
                                          recv_case(timer.c))
            if index == 0:
                timer.stop()
                return
            if any(m.is_leader and not m.node.stopped
                   for m in self.members):
                continue
            live = [m for m in self.members if not m.node.stopped]
            if live:
                self._promote(live[0])

    def _promote(self, member: ClusterMember) -> None:
        """Make ``member`` the leader: union-merge live peers' state into
        it (it may have lost un-fsynced writes a follower already
        applied; its own value wins on conflict), start replicators, and
        resync every live follower to the merged view."""
        merged: Dict[str, Any] = {}
        for peer in self.members:
            if peer is member or peer.node.stopped:
                continue
            for key, value in sorted(peer.dump().items()):
                merged.setdefault(key, value)
        own = member.dump()
        for key, value in sorted(merged.items()):
            if key not in own:
                member._apply(key, value)
        self.leader = member
        member.become_leader(
            [m.addr for m in self.members if m is not member])
        for peer in self.members:
            if peer is not member and not peer.node.stopped:
                member.resync(peer.addr)

    def _member_restarted(self, member: ClusterMember) -> None:
        """Called from a restarted member's boot goroutine after its WAL
        replay: rejoin the cluster."""
        live_leader = next(
            (m for m in self.members
             if m.is_leader and not m.node.stopped), None)
        if live_leader is not None:
            # Rejoin as a follower; the leader pushes the writes this
            # member missed (or lost un-fsynced) through its queue.
            self.leader = live_leader
            live_leader._add_follower(member.addr)
            live_leader.resync(member.addr)
        elif not self.elect and member is self.leader:
            # Static leadership: the original leader resumes its role.
            self._promote(member)
        # else: the election watchdog promotes on its next tick.

    # ------------------------------------------------------------------

    def converged(self, prefix: str = "", live_only: bool = False) -> bool:
        """True when every member holds the same key -> value map.
        ``live_only`` skips crashed/stopped members — the consistency
        probe while some machine is down."""
        members = [m for m in self.members
                   if not (live_only and m.node.stopped)]
        if len(members) <= 1:
            return True
        reference = members[0].dump(prefix)
        return all(m.dump(prefix) == reference for m in members[1:])

    def await_convergence(self, prefix: str = "", timeout: float = 30.0,
                          poll: float = 0.05) -> bool:
        """Poll (virtual time) until converged or the deadline passes."""
        deadline = self._rt.now() + timeout
        while True:
            if self.converged(prefix):
                return True
            if self._rt.now() >= deadline:
                return False
            self._rt.sleep(poll)

    def stop(self) -> None:
        if self._elect_stop is not None and not self._elect_stop.closed:
            self._elect_stop.close()
        for client in self._clients:
            client.close()
        for member in self.members:
            member.stop()

    def __repr__(self) -> str:
        return f"<EtcdCluster size={len(self.members)} net={self.net.name!r}>"


class _Roster:
    """A cluster's members and current leader, shared with its clients.

    Clients read the leader through this record rather than through the
    cluster: the cluster holds its clients (``stop`` closes them), so a
    client -> cluster edge would make every client a reference cycle.
    """

    __slots__ = ("members", "leader")

    def __init__(self, members: List[ClusterMember]):
        self.members = members
        self.leader = members[0]


class ClusterClient:
    """A client machine talking to the cluster over the fabric.

    ``failover=True`` makes the client crash-aware: before every call it
    drops a broken RPC client (its peer crashed — the pump saw the reset)
    or one pinned to a demoted leader, and redials the cluster's current
    leader.  The default stays pinned to the construction-time leader,
    preserving the static cluster's behavior.
    """

    def __init__(self, rt, cluster: EtcdCluster, name: str = "client",
                 failover: bool = False):
        self._rt = rt
        self._roster = cluster._roster
        self._name = name
        self._failover = failover
        self.node = NetNode(cluster.net, name)
        self.redials = 0
        self._rpc = connect_with_retry(self.node, cluster.leader.addr,
                                       name=f"{name}.rpc")

    def _leader_rpc(self) -> RpcClient:
        """The RPC client to use for leader calls, redialing a stale one
        in failover mode."""
        if not self._failover:
            return self._rpc
        want = self._roster.leader.addr
        if self._rpc.broken or self._rpc.addr != want:
            self._rpc.close()
            self.redials += 1
            self._rpc = connect_with_retry(self.node, want,
                                           name=f"{self._name}.rpc")
        return self._rpc

    def put(self, key: str, value: Any, lease: Optional[int] = None,
            timeout: float = 0.5, attempts: int = 8) -> int:
        """Write through the leader, retrying across partitions (and, in
        failover mode, across leader crashes and elections)."""
        payload = {"key": key, "value": value, "lease": lease}
        if not self._failover:
            return self._rpc.call_with_retry("put", payload, timeout=timeout,
                                             attempts=attempts)
        backoff = Backoff(self._rt, max_delay=0.5,
                          name=f"{self._name}.put.{key}")
        for attempt in range(attempts):
            final = attempt + 1 == attempts
            try:
                return self._leader_rpc().call("put", payload,
                                               timeout=timeout)
            except RpcError as err:
                # FAILED_PRECONDITION = "not the leader": the member we
                # dialed was demoted while we slept; redial and retry.
                if final or not (err.retryable
                                 or err.code == Status.FAILED_PRECONDITION):
                    raise
                backoff.sleep()
            except NetError as err:
                # Dial failed outright (target down, no listener yet).
                if final:
                    raise RpcError(Status.UNAVAILABLE, str(err)) from None
                backoff.sleep()
        raise AssertionError("put needs at least one attempt")

    def get(self, key: str, member: Optional[int] = None) -> Any:
        """Read from the leader, or any member (may lag) by index."""
        if member is None:
            return self._leader_rpc().call_with_retry("get", key)
        target = self._roster.members[member]
        rpc = connect_with_retry(self.node, target.addr,
                                 name=f"get.{target.name}")
        try:
            return rpc.call_with_retry("get", key)
        finally:
            rpc.close()

    def grant_lease(self, ttl: float) -> int:
        return self._leader_rpc().call_with_retry("lease_grant", ttl)

    def range(self, prefix: str = "",
              timeout: Optional[float] = None) -> List[Any]:
        return list(self._rpc.stream("range", prefix, timeout=timeout))

    def watch(self, prefix: str = "", count: Optional[int] = None,
              timeout: Optional[float] = None):
        """Server-streaming watch: yields (kind, key, value, revision).

        ``timeout`` is the per-event deadline (virtual clock); a stalled
        watch then raises DEADLINE_EXCEEDED instead of blocking forever.
        """
        return self._rpc.stream("watch", {"prefix": prefix, "count": count},
                                timeout=timeout)

    def close(self) -> None:
        self._rpc.close()
        self.node.stop(wait=False)
