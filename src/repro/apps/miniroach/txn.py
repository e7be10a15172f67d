"""miniroach transactions: intents, commit/abort, automatic retry."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ...patterns.resilience import Backoff
from .mvcc import MVCCStore, WriteConflict


class TxnStatus:
    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction coordinated against the MVCC store."""

    def __init__(self, rt, store: MVCCStore):
        self._rt = rt
        self.id = rt.fresh_id("txn")
        self.store = store
        self.read_timestamp = store.now()
        self.status = TxnStatus.PENDING
        self._writes: List[str] = []
        self._reads: List[str] = []

    def get(self, key: str) -> Optional[Any]:
        self._check_pending()
        if key not in self._reads:
            self._reads.append(key)
        return self.store.get(key, self.read_timestamp, txn_id=self.id)

    def put(self, key: str, value: Any) -> None:
        self._check_pending()
        self.store.put_intent(key, value, self.id)
        self._writes.append(key)

    def commit(self) -> None:
        """Validate reads and commit; raises WriteConflict on staleness."""
        self._check_pending()
        try:
            self.store.commit_transaction(self.id, self._reads,
                                          self.read_timestamp)
        except WriteConflict:
            self.abort()
            raise
        self.status = TxnStatus.COMMITTED

    def abort(self) -> None:
        if self.status == TxnStatus.PENDING:
            self.store.resolve_intents(self.id, commit=False)
            self.status = TxnStatus.ABORTED

    def _check_pending(self) -> None:
        if self.status != TxnStatus.PENDING:
            raise ValueError(f"txn {self.id} is {self.status}")


class TxnCoordinator:
    """Runs closures transactionally with bounded conflict retries."""

    def __init__(self, rt, store: MVCCStore, max_retries: int = 8,
                 backoff: float = 0.05):
        self._rt = rt
        # Per-run id: it names the retry-jitter RNG, so a process-global
        # counter would leak cross-run state into the schedule.
        self.id = rt.fresh_id("txn.coordinator")
        self.store = store
        self.max_retries = max_retries
        self.backoff = backoff
        self.retries = rt.atomic_int(0, name="txn.retries")
        self.commits = rt.atomic_int(0, name="txn.commits")
        self.aborts = rt.atomic_int(0, name="txn.aborts")

    def run(self, fn: Callable[[Transaction], Any], ctx=None) -> Any:
        """Execute ``fn(txn)``, retrying on write conflicts.

        Retries back off exponentially with seeded jitter so colliding
        coordinators don't re-collide in lockstep (CockroachDB's txn retry
        loop does the same).  A cancelled ``ctx`` stops the retry loop.
        """
        policy = Backoff(self._rt, base=self.backoff,
                         name=f"txn.retry.{self.id}")
        for attempt in range(self.max_retries):
            txn = Transaction(self._rt, self.store)
            try:
                result = fn(txn)
                txn.commit()
                self.commits.add(1)
                return result
            except WriteConflict:
                txn.abort()
                self.aborts.add(1)
                self.retries.add(1)
                # The last conflict is re-raised from inside its handler:
                # kept in a local past it, it would hold its own
                # traceback's frames, a reference cycle.
                if ctx is not None and ctx.err() is not None:
                    raise
                policy.sleep()
                if attempt == self.max_retries - 1:
                    raise
        raise AssertionError("run needs at least one retry")
