"""minikube API objects: pods, nodes, replica sets (plain data)."""

from __future__ import annotations

from typing import Dict, List, Optional


class PodPhase:
    PENDING = "Pending"
    SCHEDULED = "Scheduled"
    RUNNING = "Running"
    FAILED = "Failed"


class Pod:
    def __init__(self, name: str, owner: Optional[str] = None, cpu: int = 1):
        #: Assigned by :meth:`ApiServer.create_pod` from a per-run counter:
        #: a process-global one made ``sorted(..., key=uid)`` depend on how
        #: many pods earlier runs made (``"pod-10000" < "pod-9999"``).
        self.uid: Optional[str] = None
        self.name = name
        self.owner = owner          # replica set name
        self.cpu = cpu
        self.phase = PodPhase.PENDING
        self.node: Optional[str] = None

    def __repr__(self) -> str:
        return f"<Pod {self.name} {self.phase} on={self.node}>"


class Node:
    def __init__(self, name: str, capacity: int = 4):
        self.name = name
        self.capacity = capacity
        self.allocated = 0

    @property
    def free(self) -> int:
        return self.capacity - self.allocated

    def __repr__(self) -> str:
        return f"<Node {self.name} {self.allocated}/{self.capacity}>"


class ReplicaSet:
    def __init__(self, name: str, replicas: int, cpu_per_pod: int = 1):
        self.name = name
        self.replicas = replicas
        self.cpu_per_pod = cpu_per_pod
