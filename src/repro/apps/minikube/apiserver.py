"""minikube API server: the shared object store plus watch broadcast.

Controllers and the scheduler communicate exclusively through this store
(level-triggered watches), mirroring Kubernetes' architecture.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...runtime.errors import GoPanic
from .objects import Node, Pod, PodPhase, ReplicaSet


class ApiServer:
    """RWMutex-guarded object store with watch channels."""

    def __init__(self, rt):
        self._rt = rt
        self.mu = rt.rwmutex("apiserver")
        self._pods: Dict[str, Pod] = {}
        self._nodes: Dict[str, Node] = {}
        self._replicasets: Dict[str, ReplicaSet] = {}
        self._watchers: List = []
        self._version = rt.atomic_int(0, name="apiserver.version")

    # ------------------------------------------------------------------
    # Watch plumbing
    # ------------------------------------------------------------------

    def watch(self, buffer: int = 16):
        ch = self._rt.make_chan(buffer, name="api.watch")
        self.mu.lock()
        try:
            self._watchers.append(ch)
        finally:
            self.mu.unlock()
        return ch

    def _notify(self, kind: str, name: str) -> None:
        self._version.add(1)
        self.mu.rlock()
        try:
            watchers = list(self._watchers)
        finally:
            self.mu.runlock()
        for ch in watchers:
            try:
                ch.try_send((kind, name))
            except GoPanic:
                # Watch channel closed underneath us (fault injection /
                # crashed watcher): drop the subscription, keep notifying.
                self.mu.lock()
                try:
                    if ch in self._watchers:
                        self._watchers.remove(ch)
                finally:
                    self.mu.unlock()

    def close_watchers(self) -> None:
        self.mu.lock()
        try:
            watchers = list(self._watchers)
            self._watchers.clear()
        finally:
            self.mu.unlock()
        for ch in watchers:
            if not ch.closed:
                ch.close()

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        self.mu.lock()
        try:
            self._nodes[node.name] = node
        finally:
            self.mu.unlock()
        self._notify("node", node.name)

    def remove_node(self, name: str) -> List[Pod]:
        """Drop a node (failure injection): its pods go back to Pending.

        Returns the evicted pods.  The scheduler picks them up again via
        the pod notifications — the reschedule loop every controller
        manager runs in production.
        """
        self.mu.lock()
        try:
            self._nodes.pop(name, None)
            evicted = [p for p in self._pods.values() if p.node == name]
            for pod in evicted:
                pod.node = None
                pod.phase = PodPhase.PENDING
        finally:
            self.mu.unlock()
        self._notify("node", name)
        for pod in evicted:
            self._notify("pod", pod.uid)
        return evicted

    def create_pod(self, pod: Pod) -> None:
        if pod.uid is None:
            pod.uid = f"pod-{self._rt.fresh_id('pod'):04d}"
        self.mu.lock()
        try:
            self._pods[pod.uid] = pod
        finally:
            self.mu.unlock()
        self._notify("pod", pod.uid)

    def update_pod(self, pod: Pod) -> None:
        self._notify("pod", pod.uid)

    def delete_pod(self, uid: str) -> Optional[Pod]:
        self.mu.lock()
        try:
            pod = self._pods.pop(uid, None)
        finally:
            self.mu.unlock()
        if pod is not None:
            self._notify("pod", uid)
        return pod

    def apply_replicaset(self, rs: ReplicaSet) -> None:
        self.mu.lock()
        try:
            self._replicasets[rs.name] = rs
        finally:
            self.mu.unlock()
        self._notify("replicaset", rs.name)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def pods(self, phase: Optional[str] = None, owner: Optional[str] = None
             ) -> List[Pod]:
        self.mu.rlock()
        try:
            out = [
                p for p in self._pods.values()
                if (phase is None or p.phase == phase)
                and (owner is None or p.owner == owner)
            ]
        finally:
            self.mu.runlock()
        return sorted(out, key=lambda p: p.uid)

    def nodes(self) -> List[Node]:
        self.mu.rlock()
        try:
            return sorted(self._nodes.values(), key=lambda n: n.name)
        finally:
            self.mu.runlock()

    def replicasets(self) -> List[ReplicaSet]:
        self.mu.rlock()
        try:
            return sorted(self._replicasets.values(), key=lambda r: r.name)
        finally:
            self.mu.runlock()

    @property
    def resource_version(self) -> int:
        return self._version.load()
