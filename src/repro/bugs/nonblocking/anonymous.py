"""Non-blocking kernels: anonymous-function capture races (Table 9, 11/86).

Figure 8's shape — a goroutine closure capturing a loop variable by
reference — exists verbatim in Python, so these kernels are also the
positive corpus for the static capture checker
(:mod:`repro.static.capture`), mirroring the detector the paper's authors
prototype in Section 7.
"""

from __future__ import annotations

from ...dataset.records import (
    App,
    Behavior,
    FixPrimitive,
    FixStrategy,
    NonBlockingSubCause,
)
from ..meta import BugKernel, KernelMeta
from ..registry import register


@register
class Docker30603LoopCapture(BugKernel):
    """Figure 8: every child may read the final value of ``i``."""

    meta = KernelMeta(
        kernel_id="nonblocking-anon-docker-30603",
        title="Docker#30603: goroutines capture the loop variable",
        app=App.DOCKER,
        behavior=Behavior.NONBLOCKING,
        subcause=NonBlockingSubCause.ANONYMOUS_FUNCTION,
        fix_strategy=FixStrategy.PRIVATIZE,
        fix_primitives=(FixPrimitive.NONE,),
        symptom="wrong-value",
        description=(
            "for i := 17; i <= 21; i++ spawns goroutines whose closures "
            "format \"v1.%d\" from the *shared* i; children that start "
            "after the loop ends all see 21.  Docker's fix passes i as a "
            "parameter (a private copy)."
        ),
        figure="8",
        bug_url="moby/moby#30603",
        deterministic=False,
    )

    @staticmethod
    def _program(rt, pass_copy: bool):
        shared_i = rt.shared("i", 0)
        versions = rt.shared("apiVersions", ())
        record_mu = rt.mutex("record")  # the recording itself is race-free:
        wg = rt.waitgroup()             # the only bug is *which* i is read

        def record(value):
            with record_mu:
                versions.update(lambda seen: seen + (f"v1.{value}",))
            wg.done()

        for i in range(17, 22):
            shared_i.store(i)  # the loop variable lives in shared memory
            wg.add(1)
            if pass_copy:
                rt.go(record, i, name="probe")  # private copy of i
            else:
                rt.go(lambda: record(shared_i.load()), name="probe")  # BUG
        wg.wait()
        expected = tuple(f"v1.{i}" for i in range(17, 22))
        return tuple(sorted(versions.peek())) != tuple(sorted(expected))

    @staticmethod
    def buggy(rt):
        return Docker30603LoopCapture._program(rt, pass_copy=False)

    @staticmethod
    def fixed(rt):
        return Docker30603LoopCapture._program(rt, pass_copy=True)


@register
class KubernetesParentChildCapture(BugKernel):
    """Parent keeps writing a captured local after the child starts."""

    meta = KernelMeta(
        kernel_id="nonblocking-anon-kubernetes-parent-child",
        title="Kubernetes: parent mutates a captured local",
        app=App.KUBERNETES,
        behavior=Behavior.NONBLOCKING,
        subcause=NonBlockingSubCause.ANONYMOUS_FUNCTION,
        fix_strategy=FixStrategy.PRIVATIZE,
        fix_primitives=(FixPrimitive.NONE,),
        symptom="wrong-value",
        description=(
            "The retry helper captures the request object and then mutates "
            "it for the next attempt while the in-flight goroutine still "
            "reads it; 9 of the paper's 11 capture bugs are exactly this "
            "parent/child shape."
        ),
        bug_url="pattern: kubernetes/kubernetes retry capture",
        deterministic=False,
    )

    @staticmethod
    def _program(rt, pass_copy: bool):
        request = rt.shared("request.body", "attempt-1")
        sent = rt.shared("sent", None)

        def send_captured():
            sent.store(request.load())  # BUG: may read attempt-2

        def send_private(body):
            sent.store(body)

        if pass_copy:
            rt.go(send_private, request.peek(), name="sender")
        else:
            rt.go(send_captured, name="sender")
        request.store("attempt-2")  # parent prepares the retry
        rt.sleep(1.0)
        return sent.peek() != "attempt-1"

    @staticmethod
    def buggy(rt):
        return KubernetesParentChildCapture._program(rt, pass_copy=False)

    @staticmethod
    def fixed(rt):
        return KubernetesParentChildCapture._program(rt, pass_copy=True)


@register
class EtcdSiblingCapture(BugKernel):
    """Two child goroutines race on a local captured from the parent."""

    meta = KernelMeta(
        kernel_id="nonblocking-anon-etcd-siblings",
        title="etcd: two children race on a captured accumulator",
        app=App.ETCD,
        behavior=Behavior.NONBLOCKING,
        subcause=NonBlockingSubCause.ANONYMOUS_FUNCTION,
        fix_strategy=FixStrategy.ADD_SYNC,
        fix_primitives=(FixPrimitive.MUTEX,),
        symptom="wrong-value",
        description=(
            "Both range-scan goroutines append into the revisions slice the "
            "parent declared before the anonymous functions; the "
            "read-modify-write pairs interleave and drop entries (the other "
            "2 of the paper's 11 capture bugs are child/child races)."
        ),
        bug_url="pattern: etcd-io/etcd range scan capture",
        deterministic=False,
    )

    @staticmethod
    def _program(rt, protect: bool):
        revisions = rt.shared("revisions", ())
        mu = rt.mutex("revisions")
        wg = rt.waitgroup()

        def scan(shard):
            def append_revision():
                revisions.update(lambda seen: seen + (shard,))

            if protect:
                with mu:
                    append_revision()
            else:
                append_revision()  # BUG
            wg.done()

        wg.add(2)
        rt.go(lambda: scan("shard-a"), name="scan-a")
        rt.go(lambda: scan("shard-b"), name="scan-b")
        wg.wait()
        return len(revisions.peek()) != 2

    @staticmethod
    def buggy(rt):
        return EtcdSiblingCapture._program(rt, protect=False)

    @staticmethod
    def fixed(rt):
        return EtcdSiblingCapture._program(rt, protect=True)


@register
class GrpcIndexCapture(BugKernel):
    """Workers index a slice with the captured loop counter."""

    meta = KernelMeta(
        kernel_id="nonblocking-anon-grpc-index-capture",
        title="gRPC: captured index selects the wrong backend",
        app=App.GRPC,
        behavior=Behavior.NONBLOCKING,
        subcause=NonBlockingSubCause.ANONYMOUS_FUNCTION,
        fix_strategy=FixStrategy.PRIVATIZE,
        fix_primitives=(FixPrimitive.NONE,),
        symptom="wrong-value",
        description=(
            "The connectivity prober loops over backends spawning probes "
            "that index addrs[idx] with the shared idx; late probes all "
            "hit the last backend, leaving the others unmonitored."
        ),
        bug_url="pattern: grpc/grpc-go prober index capture",
        deterministic=False,
    )

    @staticmethod
    def _program(rt, pass_copy: bool):
        backends = ("b0", "b1", "b2")
        idx = rt.shared("idx", 0)
        probed = rt.shared("probed", frozenset())
        record_mu = rt.mutex("record")  # recording is race-free; the bug
        wg = rt.waitgroup()             # is *which* backend gets probed

        def probe(backend):
            with record_mu:
                probed.update(lambda seen: seen | {backend})
            wg.done()

        for i, _backend in enumerate(backends):
            idx.store(i)
            wg.add(1)
            if pass_copy:
                rt.go(probe, backends[i], name="probe")
            else:
                rt.go(lambda: probe(backends[idx.load()]), name="probe")  # BUG
        wg.wait()
        return probed.peek() != frozenset(backends)

    @staticmethod
    def buggy(rt):
        return GrpcIndexCapture._program(rt, pass_copy=False)

    @staticmethod
    def fixed(rt):
        return GrpcIndexCapture._program(rt, pass_copy=True)


@register
class BoltDBTxCapture(BugKernel):
    """A closure captures the tx variable that the loop keeps rebinding."""

    meta = KernelMeta(
        kernel_id="nonblocking-anon-boltdb-tx-capture",
        title="BoltDB: deferred closure captures the rebound tx",
        app=App.BOLTDB,
        behavior=Behavior.NONBLOCKING,
        subcause=NonBlockingSubCause.ANONYMOUS_FUNCTION,
        fix_strategy=FixStrategy.PRIVATIZE,
        fix_primitives=(FixPrimitive.NONE,),
        symptom="wrong-value",
        description=(
            "Audit hooks are registered inside the migration loop as "
            "closures over the current tx id; the variable is rebound "
            "each iteration, so late-running hooks all audit the last "
            "transaction.  The fix passes the id as a parameter."
        ),
        bug_url="pattern: boltdb/bolt migration audit capture",
        deterministic=False,
        reproduced=False,
    )

    @staticmethod
    def _program(rt, pass_copy: bool):
        current_tx = rt.shared("current-tx", 0)
        audited = rt.shared("audited", ())
        audit_mu = rt.mutex("audit")
        wg = rt.waitgroup()

        def audit(tx_id):
            with audit_mu:
                audited.update(lambda seen: seen + (tx_id,))
            wg.done()

        for tx_id in (101, 102, 103):
            current_tx.store(tx_id)  # the loop variable, in shared memory
            wg.add(1)
            if pass_copy:
                rt.go(audit, tx_id, name="audit-hook")
            else:
                rt.go(lambda: audit(current_tx.load()), name="audit-hook")
        wg.wait()
        return tuple(sorted(audited.peek())) != (101, 102, 103)

    @staticmethod
    def buggy(rt):
        return BoltDBTxCapture._program(rt, pass_copy=False)

    @staticmethod
    def fixed(rt):
        return BoltDBTxCapture._program(rt, pass_copy=True)
