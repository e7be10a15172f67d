"""minietcd leases: TTL-bound key ownership on the virtual clock.

A lease attaches keys; when its timer fires without a keep-alive the
lessor's expiry goroutine revokes it and deletes the attached keys.  Timer
callbacks run in scheduler context where blocking is illegal, so they only
push the lease onto the expiry channel — the expiry goroutine does the
locked work (exactly how etcd's lessor separates its timer heap from its
``runLoop``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ...chan.cases import recv


class Lease:
    """One granted lease."""

    def __init__(self, lease_id: int, ttl: float):
        self.id = lease_id
        self.ttl = ttl
        self.keys: Set[str] = set()
        self.expired = False
        self.revoked = False


class Lessor:
    """Grants, renews and expires leases."""

    def __init__(self, rt):
        self._rt = rt
        self.mu = rt.mutex("lessor")
        self._leases: Dict[int, Lease] = {}
        self._handles: Dict[int, object] = {}
        self._expired_ch = rt.make_chan(32, name="lessor.expired")
        self._stop = rt.make_chan(0, name="lessor.stop")
        self._expirations = rt.atomic_int(0, name="lessor.expired.count")
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, on_expire: Optional[Callable[[Lease], None]] = None) -> None:
        """Start the expiry goroutine (idempotent); ``on_expire(lease)``
        runs on it after each expiry.

        The callback lives on the goroutine, not on the lessor: it is
        usually a method of the lessor's owner, and storing it here would
        tie owner and lessor into a reference cycle.
        """
        if self._running:
            return
        self._running = True

        def expiry_loop():
            self._expiry_loop(on_expire)

        self._rt.go(expiry_loop, name="lessor.expiry")

    def _expiry_loop(self, on_expire: Optional[Callable[[Lease], None]]) -> None:
        while True:
            index, lease, ok = self._rt.select(
                recv(self._stop), recv(self._expired_ch)
            )
            if index == 0 or not ok:
                return
            if self._expire(lease) and on_expire is not None:
                on_expire(lease)

    def _expire(self, lease: Lease) -> bool:
        with self.mu:
            if lease.revoked or lease.expired:
                return False
            lease.expired = True
            self._leases.pop(lease.id, None)
            self._handles.pop(lease.id, None)
        self._expirations.add(1)
        return True

    def shutdown(self) -> None:
        with self.mu:
            handles = list(self._handles.values())
            self._handles.clear()
            self._leases.clear()
        for handle in handles:
            handle.cancel()
        if self._running:
            self._running = False
            self._stop.close()

    # ------------------------------------------------------------------
    # Lease API
    # ------------------------------------------------------------------

    def grant(self, ttl: float) -> Lease:
        lease = Lease(self._rt.fresh_id("lease"), ttl)
        with self.mu:
            self._leases[lease.id] = lease
        self._arm(lease)
        return lease

    def attach(self, lease: Lease, key: str) -> None:
        with self.mu:
            if lease.expired or lease.revoked:
                raise ValueError(f"lease {lease.id} is gone")
            lease.keys.add(key)

    def keepalive(self, lease: Lease) -> bool:
        """Reset the TTL timer; False when the lease already expired."""
        with self.mu:
            if lease.expired or lease.revoked:
                return False
            handle = self._handles.pop(lease.id, None)
        if handle is not None:
            handle.cancel()
        self._arm(lease)
        return True

    def revoke(self, lease: Lease) -> List[str]:
        """Explicitly end a lease; returns the detached keys."""
        with self.mu:
            lease.revoked = True
            self._leases.pop(lease.id, None)
            keys = sorted(lease.keys)
            handle = self._handles.pop(lease.id, None)
        if handle is not None:
            handle.cancel()
        return keys

    def _arm(self, lease: Lease) -> None:
        def on_timer():
            # Scheduler context: a non-blocking push only.
            self._expired_ch.poll_send(lease, gid=0)

        handle = self._rt.sched.clock.call_after(lease.ttl, on_timer)
        with self.mu:
            self._handles[lease.id] = handle

    # ------------------------------------------------------------------

    @property
    def expirations(self) -> int:
        return self._expirations.load()

    def active(self) -> int:
        with self.mu:
            return len(self._leases)
