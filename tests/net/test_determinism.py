"""The subsystem guarantee: same (seed, topology, plan) -> same everything.

Schedule digests, byte-identical message logs, identical fault records,
and parallel sweeps that match the serial order exactly.
"""

from functools import partial

from repro import run
from repro.inject import plans
from repro.net.demo import loadgen_summary
from repro.parallel import map_units
from repro.parallel.summary import schedule_digest


def _echo_cluster(rt):
    """A small two-client echo service with full message logging."""
    from repro.net import Node

    net = rt.network(name="echonet", log_messages=True)
    server = Node(net, "server")
    listener = server.listen("echo")

    def serve(conn):
        for payload in conn:
            conn.send(payload)

    server.go(lambda: [server.go(serve, server.track(conn), name="echo")
                       for conn in listener.accept_loop()], name="accept")

    done = rt.waitgroup("clients")
    for index in range(2):
        done.add(1)

        def client(idx=index):
            node = Node(net, f"client{idx}")
            conn = node.dial(server.addr("echo"))
            for i in range(10):
                conn.send((idx, i))
                conn.recv()
            conn.shutdown()
            node.stop()
            done.done()

        rt.go(client, name=f"client{index}")
    done.wait()
    server.stop()
    return net.format_message_log(), dict(net.stats)


def test_same_seed_reproduces_schedule_and_message_log():
    first = run(_echo_cluster, seed=5)
    second = run(_echo_cluster, seed=5)
    assert schedule_digest(first) == schedule_digest(second)
    assert first.main_result[0] == second.main_result[0]   # byte-identical
    assert first.main_result[1] == second.main_result[1]
    assert first.main_result[1]["delivered"] == first.main_result[1]["sent"]


def test_different_seeds_usually_reorder_the_fabric():
    digests = {schedule_digest(run(_echo_cluster, seed=seed))
               for seed in range(6)}
    assert len(digests) > 1


def _lossy(rt):
    from repro.net import Conn

    net = rt.network(name="lossynet", log_messages=True)
    a, b = Conn.pair(rt, net, "a", "b")
    for i in range(30):
        a.send(i)
    a.close_write()
    got = list(b)
    rt.sleep(0.5)
    return tuple(got), net.format_message_log()


def _fault_signature(result):
    return (
        result.status,
        result.steps,
        result.main_result,
        [(r.step, r.time, r.action, r.fault_index, r.victim)
         for r in result.injected],
    )


def test_net_fault_plan_replays_exactly():
    plan = plans.flaky_links(drop=0.2, duplicate=0.1, reorder=0.1)
    first = run(_lossy, seed=3, inject=plan)
    assert first.status == "ok"
    assert len(first.injected) >= 3    # all three rate faults applied
    second = run(_lossy, seed=3, inject=plan)
    assert _fault_signature(first) == _fault_signature(second)
    assert schedule_digest(first) == schedule_digest(second)


def _node_pair(rt):
    """Two registered nodes (partition faults need real topology)."""
    from repro.net import Node

    net = rt.network(name="pairnet", log_messages=True)
    a = Node(net, "a")
    listener = a.listen("sink")
    got = []

    def sink():
        conn = listener.accept()
        a.track(conn)
        for payload in conn:
            got.append(payload)

    a.go(sink, name="sink")
    b = Node(net, "b")
    conn = b.dial(a.addr("sink"))
    for i in range(60):
        conn.send(i)
        rt.sleep(0.01)
    conn.close_write()
    rt.sleep(1.0)
    a.stop()
    b.stop()
    return len(got), net.format_message_log()


def test_partition_plan_replays_exactly():
    plan = plans.partition(target="b", at_step=60, heal_after=150)
    first = run(_node_pair, seed=1, inject=plan)
    assert first.status == "ok"
    second = run(_node_pair, seed=1, inject=plan)
    assert _fault_signature(first) == _fault_signature(second)
    # The partition actually fired and cost messages.
    assert any(r.action == "net_partition" for r in first.injected)
    received, log = first.main_result
    assert "PART " in log and "HEAL" in log
    assert 0 < received < 60
    baseline, _ = run(_node_pair, seed=1).main_result
    assert baseline == 60              # without the plan, nothing is lost


def test_loadgen_summary_is_a_pure_function_of_the_seed():
    first = loadgen_summary(seed=2, clients=3, requests=8)
    second = loadgen_summary(seed=2, clients=3, requests=8)
    assert first == second
    assert first["status"] == "ok"
    assert first["requests"] == 24
    other = loadgen_summary(seed=9, clients=3, requests=8)
    assert other != first              # arrivals genuinely vary by seed


def test_parallel_sweep_matches_serial_byte_for_byte():
    units = [partial(loadgen_summary, seed, 2, 6, 200.0, "poisson")
             for seed in range(4)]
    serial = map_units(units, jobs=1)
    fanned = map_units(units, jobs=2)
    assert serial == fanned
    assert [row["seed"] for row in serial] == [0, 1, 2, 3]


def test_cluster_demo_trace_repeats_within_one_process():
    # Watch, lease and RPC ids name channels and goroutines; drawn from a
    # process-global counter they made the second run's trace differ.
    from repro.net.demo import cluster_demo

    def events():
        result = run(cluster_demo, seed=2, max_steps=400_000)
        return [repr(event) for event in result.trace.events]

    assert events() == events()
