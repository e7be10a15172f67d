"""minietcd node: store + watch hub + lessor + compactor, wired together."""

from __future__ import annotations

from typing import Any, List, Optional

from ...chan.cases import recv
from .lease import Lease, Lessor
from .store import KeyValue, Store
from .watch import Event, ReliableWatch, WatchHub, Watcher


class Node:
    """A single-member minietcd "cluster"."""

    def __init__(self, rt, compaction_interval: float = 5.0):
        self._rt = rt
        self.store = Store(rt)
        self.watch_hub = WatchHub(rt)
        self.lessor = Lessor(rt)
        self.init_once = rt.once("node.init")
        self._stop = rt.make_chan(0, name="node.stop")
        self._compaction_interval = compaction_interval
        self._compactions = rt.atomic_int(0, name="node.compactions")
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start background loops (idempotent via Once)."""
        self.init_once.do(self._start_loops)

    def _start_loops(self) -> None:
        self._started = True
        self.lessor.start(on_expire=self._expire_lease)

        def compaction_loop():
            self._compaction_loop()

        self._rt.go(compaction_loop, name="compactor")

    def _compaction_loop(self) -> None:
        ticker = self._rt.new_ticker(self._compaction_interval)
        while True:
            index, _value, _ok = self._rt.select(
                recv(self._stop), recv(ticker.c)
            )
            if index == 0:
                ticker.stop()
                return
            self.store.compact()
            self._compactions.add(1)

    def stop(self) -> None:
        if self._started:
            self._stop.close()
            self._started = False
        self.watch_hub.close_all()
        self.lessor.shutdown()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any, lease: Optional[Lease] = None) -> int:
        revision = self.store.put(key, value)
        if lease is not None:
            self.lessor.attach(lease, key)
        self.watch_hub.broadcast(Event("PUT", key, value, revision))
        return revision

    def get(self, key: str) -> Optional[Any]:
        kv = self.store.get(key)
        return kv.value if kv else None

    def delete(self, key: str) -> bool:
        revision = self.store.delete(key)
        if revision is None:
            return False
        self.watch_hub.broadcast(Event("DELETE", key, None, revision))
        return True

    def range(self, prefix: str = "") -> List[KeyValue]:
        return self.store.range(prefix)

    def watch(self, prefix: str = "", buffer: int = 8) -> Watcher:
        return self.watch_hub.watch(prefix, buffer)

    def reliable_watch(self, prefix: str = "", buffer: int = 8) -> "ReliableWatch":
        """A watch that re-subscribes and resyncs if its subscription dies."""
        return ReliableWatch(self._rt, self, prefix, buffer)

    def grant_lease(self, ttl: float) -> Lease:
        return self.lessor.grant(ttl)

    def txn(self) -> "Txn":
        """Start an atomic compare-then-else transaction."""
        from .txn import Txn

        return Txn(self.store, self.watch_hub)

    @property
    def compactions(self) -> int:
        return self._compactions.load()

    # ------------------------------------------------------------------

    def _expire_lease(self, lease: Lease) -> None:
        for key in sorted(lease.keys):
            self.delete(key)
