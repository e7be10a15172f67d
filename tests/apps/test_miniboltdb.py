"""miniboltdb end-to-end: tx isolation, single writer, batching."""

import pytest

from repro import run
from repro.apps.miniboltdb import DB, Batcher, TxClosed


def test_update_and_view():
    def main(rt):
        db = DB(rt)
        db.update(lambda tx: tx.put("k", "v"))
        seen = []
        db.view(lambda tx: seen.append(tx.get("k")))
        return seen

    assert run(main).main_result == ["v"]


def test_readonly_tx_rejects_writes():
    def main(rt):
        db = DB(rt)
        tx = db.begin(writable=False)
        try:
            tx.put("k", 1)
        except TxClosed:
            tx.rollback()
            return "rejected"

    assert run(main).main_result == "rejected"


def test_rollback_discards_pending_writes():
    def main(rt):
        db = DB(rt)
        tx = db.begin(writable=True)
        tx.put("temp", 1)
        tx.rollback()
        out = []
        db.view(lambda tx2: out.append(tx2.get("temp")))
        return out

    assert run(main).main_result == [None]


def test_finished_tx_unusable():
    def main(rt):
        db = DB(rt)
        tx = db.begin(writable=True)
        tx.commit()
        try:
            tx.get("k")
        except TxClosed:
            return "closed"

    assert run(main).main_result == "closed"


def test_single_writer_serializes_updates():
    def main(rt):
        db = DB(rt)
        wg = rt.waitgroup()

        def writer(i):
            def body(tx):
                current = tx.get("count") or 0
                rt.sleep(0.1)  # hold the writer lock across the RMW
                tx.put("count", current + 1)

            db.update(body)
            wg.done()

        for i in range(4):
            wg.add(1)
            rt.go(writer, i)
        wg.wait()
        out = []
        db.view(lambda tx: out.append(tx.get("count")))
        return out[0]

    for seed in range(6):
        assert run(main, seed=seed).main_result == 4


def test_delete_in_tx():
    def main(rt):
        db = DB(rt)
        db.update(lambda tx: tx.put("gone", 1))
        db.update(lambda tx: tx.delete("gone"))
        return db.keys()

    assert run(main).main_result == []


def test_update_exception_rolls_back_and_releases_lock():
    def main(rt):
        db = DB(rt)

        def bad(tx):
            tx.put("half", 1)
            raise ValueError("boom")

        try:
            db.update(bad)
        except ValueError:
            pass
        db.update(lambda tx: tx.put("after", 2))  # lock must be free
        return db.keys()

    assert run(main).main_result == ["after"]


def test_grow_path_does_not_self_deadlock():
    """The BoltDB#392 lesson baked into the fixed design."""

    def main(rt):
        db = DB(rt, page_size=4)

        def fill(tx):
            for i in range(10):
                tx.put(f"k{i}", i)

        db.update(fill)
        return len(db.keys())

    result = run(main)
    assert result.status == "ok"
    assert result.main_result == 10


def test_batcher_coalesces_writers():
    def main(rt):
        db = DB(rt)
        batcher = Batcher(rt, db, max_batch=4, flush_interval=1.0)
        batcher.start()
        wg = rt.waitgroup()

        def writer(i):
            batcher.batch(lambda tx, i=i: tx.put(f"b{i}", i))
            wg.done()

        for i in range(8):
            wg.add(1)
            rt.go(writer, i)
        wg.wait()
        batcher.stop()
        rt.sleep(0.5)
        _txs, commits = db.stats()
        return len(db.keys()), commits, batcher.batches.load()

    keys, commits, batches = run(main, seed=1).main_result
    assert keys == 8
    assert batches == commits
    assert commits < 8  # coalesced: fewer transactions than writers


def test_stats_and_close():
    def main(rt):
        db = DB(rt)
        db.update(lambda tx: tx.put("x", 1))
        db.view(lambda tx: tx.get("x"))
        txs, commits = db.stats()
        db.close()
        try:
            db.begin()
        except TxClosed:
            return txs, commits, "closed"

    assert run(main).main_result == (2, 1, "closed")


def test_tx_ids_repeat_within_one_process():
    # Tx ids come from the run, not from a process-global counter.
    def main(rt):
        db = DB(rt)
        ids = []

        def writer(tx):
            ids.append(tx.id)
            tx.put("k", len(ids))

        db.update(writer)
        db.view(lambda tx: ids.append(tx.id))
        tx = db.begin(writable=True)
        tx.commit()
        try:
            tx.put("late", 1)
        except TxClosed as exc:
            return ids, str(exc)

    first = run(main, seed=1).main_result
    assert run(main, seed=1).main_result == first
    assert first == ([1, 2], "tx 3 already finished")
