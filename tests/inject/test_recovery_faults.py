"""Crash-recovery faults: serialization, globs, replay."""

import hashlib

from repro import run
from repro.inject import Fault, FaultPlan, plans
from repro.net import Node, RestartPolicy, Supervisor


def test_restart_and_crash_restart_round_trip_json():
    plan = FaultPlan(
        name="recovery-mix",
        faults=(
            Fault("restart", target="n2/*", after_time=1.5),
            Fault("crash_restart", target="n2/*", after_time=0.5,
                  value=0.35),
            Fault("crash", target="n?", after_time=0.25, times=2),
        ),
    )
    recovered = FaultPlan.from_json(plan.to_json())
    assert recovered == plan
    assert recovered.faults[1].value == 0.35  # the restart delay survives
    assert recovered.fingerprint() == plan.fingerprint()


def test_machine_glob_matches_node_name():
    """``"n2/*"`` — the kill action's machine glob — also selects node n2
    for crash faults, so kill plans port to crash plans unchanged."""

    def main(rt):
        net = rt.network(name="t")
        n1, n2 = Node(net, "n1"), Node(net, "n2")
        rt.sleep(1.0)
        return n1.stopped, n2.stopped

    plan = FaultPlan(
        name="crash-n2",
        faults=(Fault("crash", target="n2/*", after_time=0.5),),
    )
    result = run(main, seed=0, inject=plan)
    assert result.main_result == (False, True)
    assert [f.victim for f in result.injected] == ["node:n2"]


def test_crash_restart_fault_revives_after_delay():
    def main(rt):
        net = rt.network(name="t")
        node = Node(net, "n1")
        rt.sleep(0.7)
        mid = node.stopped         # crashed at 0.5, restart due at 0.9
        rt.sleep(0.5)
        return mid, node.stopped, node.incarnation

    plan = plans.crash_restart(target="n1", after_time=0.5, delay=0.4)
    mid, final, incarnation = run(main, seed=0, inject=plan).main_result
    assert mid is True
    assert final is False
    assert incarnation == 1


def test_restart_action_revives_a_crashed_node():
    def main(rt):
        net = rt.network(name="t")
        node = Node(net, "n1")
        rt.sleep(2.0)
        return node.stopped, node.incarnation

    plan = plans.crash_node(target="n1", after_time=0.5) \
        + plans.restart_node(target="n1", after_time=1.0)
    stopped, incarnation = run(main, seed=0, inject=plan).main_result
    assert stopped is False
    assert incarnation == 1


def test_crash_plan_replay_is_byte_identical():
    """Acceptance bar: two runs of one (seed, plan) with crash_restart on
    the durable cluster produce byte-identical message logs and the same
    convergence verdict."""
    from repro.inject.scenarios import net_etcd_recovery_scenario

    def program(rt):
        out = net_etcd_recovery_scenario(rt, chaos_window=1.5, budget=5.0)
        net = rt._networks[0]
        out["log_sha"] = hashlib.sha256(
            net.format_message_log().encode("utf-8")).hexdigest()
        return out

    plan = plans.crash_restart(delay=0.3)
    first = run(program, seed=3, inject=plan, max_steps=600_000)
    second = run(program, seed=3, inject=plan, max_steps=600_000)
    assert first.status == second.status == "ok"
    assert first.main_result["verdict"] == second.main_result["verdict"]
    assert first.main_result["log_sha"] == second.main_result["log_sha"]
    assert first.steps == second.steps
    assert ([(f.step, f.action, f.victim) for f in first.injected]
            == [(f.step, f.action, f.victim) for f in second.injected])


def test_crash_log_lines_record_loss_and_incarnation():
    def main(rt):
        net = rt.network(name="t")
        node = Node(net, "n1")
        disk = node.disk()
        disk.append(("put", "a", 1))
        node.crash()
        node.restart()
        return net.format_message_log()

    log = run(main).main_result
    assert "CRSH n1 lost=1" in log
    assert "BOOT n1 #1" in log


def test_supervised_recovery_under_injected_crash():
    """End to end: the injector crashes a machine, the supervisor brings
    it back, and the run records both the fault and the restart."""

    def main(rt):
        net = rt.network(name="t")
        node = Node(net, "n1")
        sup = Supervisor(rt, RestartPolicy.always(delay=0.05)).watch(node)
        rt.sleep(1.0)
        out = (node.stopped, node.incarnation, sup.total_restarts)
        sup.stop()
        return out

    plan = plans.crash_node(target="n1", after_time=0.3)
    stopped, incarnation, restarts = run(main, seed=1,
                                         inject=plan).main_result
    assert stopped is False
    assert incarnation == 1
    assert restarts == 1
