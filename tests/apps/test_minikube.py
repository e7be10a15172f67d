"""minikube end-to-end: work queue, scheduler, replica controller."""

import pytest

from repro import run
from repro.apps.minikube import (
    ApiServer,
    Node,
    Pod,
    PodPhase,
    ReplicaSet,
    ReplicaSetController,
    Scheduler,
    WorkQueue,
)


def test_workqueue_fifo_and_dedup():
    def main(rt):
        q = WorkQueue(rt)
        q.add("a")
        q.add("b")
        q.add("a")  # deduplicated against pending
        first, _ = q.get()
        second, _ = q.get()
        q.shutdown()
        _item, down = q.get()
        return first, second, down, q.adds

    first, second, down, adds = run(main).main_result
    assert (first, second) == ("a", "b")
    assert down is True
    assert adds == 3


def test_workqueue_requeues_dirty_items():
    def main(rt):
        q = WorkQueue(rt)
        q.add("x")
        item, _ = q.get()
        q.add("x")      # arrives while x is processing -> goes dirty
        q.done(item)    # processing ends -> requeued
        item2, _ = q.get()
        q.shutdown()
        return item, item2

    assert run(main).main_result == ("x", "x")


def test_workqueue_blocks_until_add():
    def main(rt):
        q = WorkQueue(rt)

        def producer():
            rt.sleep(1.0)
            q.add("late")

        rt.go(producer)
        item, _ = q.get()
        q.shutdown()
        return item, rt.now()

    item, now = run(main).main_result
    assert item == "late" and now == pytest.approx(1.0)


def test_workqueue_shutdown_releases_blocked_workers():
    def main(rt):
        q = WorkQueue(rt)
        released = rt.atomic_int(0)

        def worker():
            _item, down = q.get()
            if down:
                released.add(1)

        for _ in range(3):
            rt.go(worker)
        rt.sleep(0.5)
        q.shutdown()
        rt.sleep(0.5)
        return released.load()

    assert run(main).main_result == 3


def test_scheduler_binds_pending_pods():
    def main(rt):
        api = ApiServer(rt)
        for i in range(2):
            api.add_node(Node(f"node-{i}", capacity=2))
        scheduler = Scheduler(rt, api)
        scheduler.start()
        for i in range(3):
            api.create_pod(Pod(f"p{i}"))
        rt.sleep(2.0)
        scheduled = api.pods(phase=PodPhase.SCHEDULED)
        placements = sorted((p.name, p.node is not None) for p in scheduled)
        scheduler.stop()
        api.close_watchers()
        rt.sleep(0.5)
        return len(scheduled), placements, scheduler.bound

    count, placements, bound = run(main, seed=1).main_result
    assert count == 3 and bound == 3
    assert all(placed for _name, placed in placements)


def test_scheduler_respects_capacity():
    def main(rt):
        api = ApiServer(rt)
        api.add_node(Node("tiny", capacity=1))
        scheduler = Scheduler(rt, api)
        scheduler.start()
        for i in range(3):
            api.create_pod(Pod(f"p{i}", cpu=1))
        rt.sleep(2.0)
        scheduled = len(api.pods(phase=PodPhase.SCHEDULED))
        unschedulable = scheduler.unschedulable
        scheduler.stop()
        api.close_watchers()
        rt.sleep(0.5)
        return scheduled, unschedulable

    scheduled, unschedulable = run(main, seed=4).main_result
    assert scheduled == 1
    assert unschedulable >= 2


def test_replicaset_controller_reaches_desired_count():
    def main(rt):
        api = ApiServer(rt)
        controller = ReplicaSetController(rt, api)
        controller.start()
        api.apply_replicaset(ReplicaSet("web", replicas=4))
        rt.sleep(2.0)
        owned = api.pods(owner="web")
        controller.stop()
        api.close_watchers()
        rt.sleep(0.5)
        return len(owned), controller.created

    count, created = run(main, seed=2).main_result
    assert count == 4 and created == 4


def test_scale_down_deletes_excess_pods():
    def main(rt):
        api = ApiServer(rt)
        controller = ReplicaSetController(rt, api)
        controller.start()
        api.apply_replicaset(ReplicaSet("web", replicas=4))
        rt.sleep(2.0)
        api.apply_replicaset(ReplicaSet("web", replicas=1))
        rt.sleep(2.0)
        owned = api.pods(owner="web")
        controller.stop()
        api.close_watchers()
        rt.sleep(0.5)
        return len(owned), controller.deleted

    count, deleted = run(main, seed=3).main_result
    assert count == 1 and deleted == 3


def test_full_control_plane_schedules_replicaset():
    def main(rt):
        api = ApiServer(rt)
        for i in range(3):
            api.add_node(Node(f"node-{i}", capacity=4))
        scheduler = Scheduler(rt, api)
        controller = ReplicaSetController(rt, api)
        scheduler.start()
        controller.start()
        api.apply_replicaset(ReplicaSet("api", replicas=5))
        rt.sleep(4.0)
        scheduled = api.pods(phase=PodPhase.SCHEDULED)
        spread = {p.node for p in scheduled}
        scheduler.stop()
        controller.stop()
        api.close_watchers()
        rt.sleep(0.5)
        return len(scheduled), len(spread)

    for seed in range(5):
        count, spread = run(main, seed=seed).main_result
        assert count == 5, seed
        assert spread >= 2, "pods should spread across nodes"


def _scale_down_survivors(rt):
    api = ApiServer(rt)
    controller = ReplicaSetController(rt, api)
    controller.start()
    api.apply_replicaset(ReplicaSet("web", replicas=4))
    rt.sleep(2.0)
    api.apply_replicaset(ReplicaSet("web", replicas=1))
    rt.sleep(2.0)
    survivors = [(p.uid, p.name) for p in api.pods(owner="web")]
    controller.stop()
    api.close_watchers()
    rt.sleep(0.5)
    return survivors


def test_pod_uids_repeat_within_one_process():
    # Scale-down deletes the pods with the highest uids.  Drawn from a
    # process-global counter, uids depended on the pods earlier runs made:
    # past "pod-9999", "pod-10000" sorted first and a different pod died.
    def trace():
        result = run(_scale_down_survivors, seed=3)
        return result.main_result, [repr(e) for e in result.trace.events]

    first = trace()
    for i in range(10_000):
        Pod(f"unrelated-{i}")
    assert trace() == first
    assert first[0] == [("pod-0001", "web-0")]
