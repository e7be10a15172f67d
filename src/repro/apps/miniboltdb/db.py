"""miniboltdb: a single-writer embedded KV store.

BoltDB's concurrency shape (and Table 4 profile): mutex-dominated, almost
no channels — one writer transaction at a time under ``writer_mu``, many
concurrent readers under an RWMutex, and a freelist guarded by the meta
lock.  BoltDB#392's deadlock lived exactly in the meta-lock re-entry this
module's ``_grow`` path carefully avoids.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple


class TxClosed(Exception):
    """Operation on a finished transaction."""


class Tx:
    """One transaction; writable transactions are exclusive."""

    def __init__(self, db: "DB", writable: bool):
        # Per-run, like every id in the simulated apps: a process-global
        # counter made a run's ids depend on the runs before it.
        self.id = db._rt.fresh_id("tx")
        self.db = db
        self.writable = writable
        self._pending: Dict[str, Optional[Any]] = {}
        self._open = True

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        self._check_open()
        if key in self._pending:
            return self._pending[key]
        return self.db._read(key)

    def put(self, key: str, value: Any) -> None:
        self._check_open()
        if not self.writable:
            raise TxClosed("put on a read-only transaction")
        self._pending[key] = value

    def delete(self, key: str) -> None:
        self._check_open()
        if not self.writable:
            raise TxClosed("delete on a read-only transaction")
        self._pending[key] = None

    def commit(self) -> None:
        self._check_open()
        self._open = False
        if self.writable:
            self.db._apply(self._pending)
            self.db._release_writer()
        else:
            self.db._release_reader()

    def rollback(self) -> None:
        if not self._open:
            return
        self._open = False
        if self.writable:
            self.db._release_writer()
        else:
            self.db._release_reader()

    def _check_open(self) -> None:
        if not self._open:
            raise TxClosed(f"tx {self.id} already finished")


class DB:
    """The embedded database handle."""

    def __init__(self, rt, page_size: int = 16):
        self._rt = rt
        self.writer_mu = rt.mutex("db.writer")     # one writable tx at a time
        self.data_mu = rt.rwmutex("db.data")       # readers vs. commit
        self.meta_mu = rt.mutex("db.meta")         # freelist / mmap metadata
        self._data: Dict[str, Any] = {}
        self._pages = page_size
        self._tx_count = rt.atomic_int(0, name="db.txs")
        self._commits = rt.atomic_int(0, name="db.commits")
        self._closed = False

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self, writable: bool = False) -> Tx:
        if self._closed:
            raise TxClosed("database closed")
        if writable:
            self.writer_mu.lock()
        else:
            self.data_mu.rlock()
        self._tx_count.add(1)
        return Tx(self, writable)

    def update(self, fn) -> None:
        """Run ``fn(tx)`` in a writable transaction, like ``db.Update``."""
        tx = self.begin(writable=True)
        try:
            fn(tx)
        except BaseException:
            tx.rollback()
            raise
        tx.commit()

    def view(self, fn) -> None:
        """Run ``fn(tx)`` read-only, like ``db.View``."""
        tx = self.begin(writable=False)
        try:
            fn(tx)
        finally:
            tx.rollback()

    def update_with_retry(self, fn, attempts: int = 6,
                          lock_timeout: float = 0.25) -> bool:
        """A chaos-tolerant ``update``: poll for the writer lock with seeded
        backoff instead of parking unboundedly on it.

        A writer that blocks forever on ``writer_mu`` (because the previous
        holder was killed mid-transaction by a fault) would deadlock the
        whole app; bounded polling degrades that to a ``False`` return the
        caller can retry at its own level.  Returns True once committed.
        """
        from ...patterns.resilience import Backoff

        policy = Backoff(self._rt, base=lock_timeout / 4.0,
                         max_delay=lock_timeout, name="db.update-retry")
        for attempt in range(attempts):
            if self._closed:
                raise TxClosed("database closed")
            if self.writer_mu.try_lock():
                self._tx_count.add(1)
                tx = Tx(self, True)
                try:
                    fn(tx)
                except BaseException:
                    tx.rollback()
                    raise
                tx.commit()
                return True
            if attempt < attempts - 1:
                policy.sleep()
        return False

    # ------------------------------------------------------------------
    # Internals called by Tx
    # ------------------------------------------------------------------

    def _read(self, key: str) -> Optional[Any]:
        return self._data.get(key)

    def _apply(self, pending: Dict[str, Optional[Any]]) -> None:
        if len(self._data) + len(pending) > self._pages:
            self._grow()
        self.data_mu.lock()
        try:
            for key, value in pending.items():
                if value is None:
                    self._data.pop(key, None)
                else:
                    self._data[key] = value
        finally:
            self.data_mu.unlock()
        self._commits.add(1)

    def _grow(self) -> None:
        # BoltDB#392's lesson: the grow path must *not* re-take a lock the
        # caller already holds; meta_mu is only ever taken here.
        self.meta_mu.lock()
        try:
            self._pages *= 2
        finally:
            self.meta_mu.unlock()

    def _release_writer(self) -> None:
        self.writer_mu.unlock()

    def _release_reader(self) -> None:
        self.data_mu.runlock()

    # ------------------------------------------------------------------

    def stats(self) -> Tuple[int, int]:
        return self._tx_count.load(), self._commits.load()

    def keys(self) -> List[str]:
        self.data_mu.rlock()
        try:
            return sorted(self._data)
        finally:
            self.data_mu.runlock()

    def close(self) -> None:
        self.writer_mu.lock()
        try:
            self._closed = True
        finally:
            self.writer_mu.unlock()
