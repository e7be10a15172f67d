"""The abstract interpreter: kernel class -> whole-program summary model."""

from repro.bugs.registry import get
from repro.static import MANY, ONCE, build_model

KNOWN_OP_KINDS = {
    "acquire", "release", "send", "recv", "recv_ok", "try_send", "try_recv",
    "close", "range", "select", "wg_add", "wg_done", "wg_wait", "spawn",
    "load", "store", "rmw", "cond_wait", "cond_signal", "cond_broadcast",
    "pipe_read", "pipe_write", "pipe_close", "cancel", "lib_use", "timer_new",
}


def test_double_lock_kernel_model_shape():
    model = build_model(get("blocking-mutex-docker-double-lock"), "buggy")
    main = model.threads[0]
    assert main.key == "main"
    assert main.mult is ONCE
    ops = [op for path in main.paths for op in path.ops]
    acquires = [op for op in ops if op.kind == "acquire"]
    assert acquires, "no acquire recorded for a mutex kernel"
    # The helper re-locks while the entry point still holds the mutex:
    # the second acquire must carry the first lock in its lockset.
    assert any(op.obj in {mu for mu, _ in op.lockset} for op in acquires)


def test_fixed_variant_produces_a_distinct_model():
    kernel = get("blocking-mutex-docker-double-lock")
    buggy = build_model(kernel, "buggy")
    fixed = build_model(kernel, "fixed")
    def held_reacquire(model):
        return any(op.obj in {mu for mu, _ in op.lockset}
                   for t in model.threads for p in t.paths for op in p.ops
                   if op.kind == "acquire")
    assert held_reacquire(buggy)
    assert not held_reacquire(fixed)


def test_spawned_threads_and_loop_multiplicity():
    model = build_model(get("nonblocking-anon-grpc-index-capture"), "buggy")
    keys = {t.key for t in model.threads}
    assert "main" in keys and len(keys) > 1
    # Probes are spawned from a for loop: the child thread runs MANY times.
    assert any(t.mult is MANY for t in model.threads if t.key != "main")
    spawns = [op for t in model.threads for p in t.paths for op in p.ops
              if op.kind == "spawn"]
    assert spawns and all(op.detail in keys for op in spawns)


def test_op_vocabulary_is_closed():
    # Checkers pattern-match op.kind strings; an unknown kind would be
    # silently invisible to every checker.
    for kid in ("blocking-chan-docker-missing-close",
                "blocking-wait-kubernetes-cond-missed-signal",
                "nonblocking-msglib-grpc-timer-zero",
                "blocking-msglib-docker-pipe-writer"):
        model = build_model(get(kid), "buggy")
        for thread in model.threads:
            for path in thread.paths:
                for op in path.ops:
                    assert op.kind in KNOWN_OP_KINDS, (kid, op.kind)


def test_interpreters_share_the_class_node():
    # Each call builds a fresh interpreter; the parse is the source
    # model's, so both variants walk one node.
    from repro.static.interp import StaticInterp
    from repro.static.source import class_node

    kernel = get("blocking-mutex-kubernetes-abba")
    first = StaticInterp(kernel).class_node
    assert first is StaticInterp(kernel).class_node
    assert first is class_node(kernel)
