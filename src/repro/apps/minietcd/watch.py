"""minietcd watch hub: the channel fan-out that dominates etcd's
message-passing usage (chan is 42.99% of etcd's primitives in Table 4).

Every watcher owns a buffered event channel; the hub broadcasts store
events with a non-blocking send so one slow watcher cannot stall the
write path (slow watchers observe a ``compacted``-style gap instead,
as real etcd does).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ...chan.cases import recv, send
from ...runtime.errors import GoPanic


class Event:
    """A store mutation delivered to watchers."""

    __slots__ = ("kind", "key", "value", "revision")

    def __init__(self, kind: str, key: str, value: Any, revision: int):
        self.kind = kind            # "PUT" | "DELETE"
        self.key = key
        self.value = value
        self.revision = revision

    def __repr__(self) -> str:
        return f"<Event {self.kind} {self.key}@{self.revision}>"


class Watcher:
    """One subscription: a prefix filter plus a delivery channel."""

    def __init__(self, rt, prefix: str, buffer: int = 8):
        self.id = rt.fresh_id("watch")
        self.prefix = prefix
        self.events = rt.make_chan(buffer, name=f"watch-{self.id}")
        self.dropped = rt.atomic_int(0, name=f"watch-{self.id}.dropped")
        self._cancelled = False

    def matches(self, event: Event) -> bool:
        return event.key.startswith(self.prefix)


class WatchHub:
    """Registry + broadcaster for watchers."""

    def __init__(self, rt):
        self._rt = rt
        self.mu = rt.mutex("watchhub")
        self._watchers: Dict[int, Watcher] = {}

    def watch(self, prefix: str = "", buffer: int = 8) -> Watcher:
        watcher = Watcher(self._rt, prefix, buffer)
        with self.mu:
            self._watchers[watcher.id] = watcher
        return watcher

    def cancel(self, watcher: Watcher) -> None:
        """Unregister and close the watcher's channel (ends its range loop)."""
        with self.mu:
            removed = self._watchers.pop(watcher.id, None)
        if removed is not None and not watcher._cancelled:
            watcher._cancelled = True
            if not watcher.events.closed:  # may already be closed by a fault
                watcher.events.close()

    def broadcast(self, event: Event) -> int:
        """Deliver to every matching watcher; returns the delivery count.

        A watcher whose channel was closed underneath us (fault injection,
        a crashed consumer) is dropped from the registry instead of letting
        the send-on-closed panic take down the write path.
        """
        with self.mu:
            targets = [w for w in self._watchers.values() if w.matches(event)]
        delivered = 0
        for watcher in targets:
            try:
                if watcher.events.try_send(event):
                    delivered += 1
                else:
                    watcher.dropped.add(1)
            except GoPanic:
                watcher._cancelled = True
                with self.mu:
                    self._watchers.pop(watcher.id, None)
        return delivered

    def active(self) -> int:
        with self.mu:
            return len(self._watchers)

    def close_all(self) -> None:
        with self.mu:
            watchers = list(self._watchers.values())
            self._watchers.clear()
        for watcher in watchers:
            if not watcher._cancelled:
                watcher._cancelled = True
                if not watcher.events.closed:
                    watcher.events.close()


class ReliableWatch:
    """A watch that survives its upstream subscription dying.

    Graceful degradation for the chaos suite: when the underlying watcher's
    channel is closed underneath it (connection drop, fault injection), the
    pump re-subscribes and **resyncs** — it re-lists the store under the
    prefix and replays every key whose ``mod_revision`` is newer than the
    last revision the consumer saw, so no PUT is lost across the gap.
    (Deletes that happened entirely inside a gap are not replayed, matching
    an etcd client re-list.)

    Consumers read :attr:`events`, which stays open across re-subscriptions,
    and call :meth:`cancel` when done.
    """

    def __init__(self, rt, node, prefix: str = "", buffer: int = 8):
        self._rt = rt
        self._node = node
        self.prefix = prefix
        self.buffer = buffer
        self.id = rt.fresh_id("rwatch")
        self.events = rt.make_chan(buffer, name=f"rwatch-{self.id}")
        self._stop = rt.make_chan(0, name=f"rwatch-{self.id}.stop")
        self.resyncs = rt.atomic_int(0, name=f"rwatch-{self.id}.resyncs")
        self.last_revision = 0
        # Subscribe synchronously so no event published between construction
        # and the pump's first run can be missed.
        self._watcher = self._subscribe()
        rt.go(self._pump, name=f"rwatch-{self.id}.pump")

    def _subscribe(self) -> Watcher:
        return self._node.watch_hub.watch(self.prefix, self.buffer)

    def _resync(self) -> List[Event]:
        """Replay store state newer than the last delivered revision."""
        return [
            Event("PUT", kv.key, kv.value, kv.mod_revision)
            for kv in self._node.store.range(self.prefix)
            if kv.mod_revision > self.last_revision
        ]

    def _deliver(self, event: Event) -> bool:
        """Forward one event; returns False when the consumer cancelled."""
        index, _v, _ok = self._rt.select(recv(self._stop), send(self.events, event))
        if index == 0:
            return False
        self.last_revision = max(self.last_revision, event.revision)
        return True

    def _pump(self) -> None:
        watcher = self._watcher
        drops_handled = 0
        try:
            while True:
                index, value, ok = self._rt.select(
                    recv(self._stop), recv(watcher.events)
                )
                if index == 0:
                    return
                if not ok:
                    # Upstream died: re-subscribe first (so nothing published
                    # during the resync is missed), then replay the gap.
                    self.resyncs.add(1)
                    watcher = self._subscribe()
                    drops_handled = 0
                    for event in self._resync():
                        if not self._deliver(event):
                            return
                    continue
                if not isinstance(value, Event):
                    continue  # junk injected into the pipe: ignore
                if not self._deliver(value):
                    return
                if watcher.dropped.load() > drops_handled:
                    # The hub dropped events while our buffer was full:
                    # replay the gap from the store, like an etcd client
                    # recovering from a "compacted" watch error.
                    drops_handled = watcher.dropped.load()
                    self.resyncs.add(1)
                    for event in self._resync():
                        if not self._deliver(event):
                            return
        except GoPanic:
            return  # our own output channel was closed underneath us
        finally:
            self._node.watch_hub.cancel(watcher)
            if not self.events.closed:
                self.events.close()

    def cancel(self) -> None:
        if not self._stop.closed:
            self._stop.close()
