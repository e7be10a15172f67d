"""Kernel metadata and the base class for executable bug reproductions.

Every kernel packages a GoBench-style minimal reproduction of one studied
bug pattern: a ``buggy`` program, the developers' ``fixed`` program, the
paper's taxonomy labels, and a symptom predicate used by tests, benchmarks
and detector evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..dataset.records import (
    App,
    Behavior,
    BlockingSubCause,
    Cause,
    FixPrimitive,
    FixStrategy,
    NonBlockingSubCause,
)
from ..runtime.runtime import RunResult, is_stuck, run

#: Symptom kinds a kernel can declare.
SYMPTOMS = ("deadlock", "leak", "panic", "wrong-value")


@dataclass(frozen=True)
class KernelMeta:
    """Taxonomy labels and reproduction notes for one kernel."""

    kernel_id: str
    title: str
    app: App
    behavior: Behavior
    subcause: object  # BlockingSubCause | NonBlockingSubCause
    fix_strategy: FixStrategy
    fix_primitives: Tuple[FixPrimitive, ...]
    symptom: str
    description: str
    figure: Optional[str] = None       # paper figure it reproduces, if any
    bug_url: Optional[str] = None      # upstream issue/PR the pattern mirrors
    reproduced: bool = True            # part of the Table 8 / 12 corpora
    deterministic: bool = True         # manifests under every seed
    #: The bug is a latent data race whose wrong value may never surface;
    #: its evaluation is detector-based (e.g. the shadow-eviction kernel).
    latent: bool = False

    def __post_init__(self) -> None:
        if self.symptom not in SYMPTOMS:
            raise ValueError(f"{self.kernel_id}: unknown symptom {self.symptom!r}")
        if self.behavior == Behavior.BLOCKING:
            assert isinstance(self.subcause, BlockingSubCause), self.kernel_id
        else:
            assert isinstance(self.subcause, NonBlockingSubCause), self.kernel_id

    @property
    def cause(self) -> Cause:
        return self.subcause.cause


class BugKernel:
    """Base class: subclass, set ``meta``, implement ``buggy`` and ``fixed``.

    ``buggy``/``fixed`` are programs in the :func:`repro.run` sense.  By
    convention, ``wrong-value`` kernels return a truthy value from main
    exactly when the misbehavior was observed.
    """

    meta: KernelMeta
    #: Extra keyword arguments for :func:`repro.run` (e.g. ``time_limit``
    #: for kernels that model a long-running server around a stuck main).
    run_kwargs: Dict[str, Any] = {}

    @staticmethod
    def buggy(rt) -> Any:
        raise NotImplementedError

    @staticmethod
    def fixed(rt) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------

    @classmethod
    def manifested(cls, result: RunResult) -> bool:
        """Did the bug's symptom appear in this run?"""
        symptom = cls.meta.symptom
        if symptom == "deadlock":
            return result.status == "deadlock"
        if symptom == "leak":
            return is_stuck(result)
        if symptom == "panic":
            return result.status == "panic"
        # wrong-value: the program reports its own misbehavior.
        return result.status == "panic" or bool(result.main_result)

    @classmethod
    def run_buggy(cls, seed: int = 0, **kwargs: Any) -> RunResult:
        merged = dict(cls.run_kwargs)
        merged.update(kwargs)
        return run(cls.buggy, seed=seed, **merged)

    @classmethod
    def run_fixed(cls, seed: int = 0, **kwargs: Any) -> RunResult:
        merged = dict(cls.run_kwargs)
        merged.update(kwargs)
        return run(cls.fixed, seed=seed, **merged)

    @classmethod
    def manifestation_seeds(cls, seeds, jobs: int = 1, **kwargs: Any):
        """Seeds (from ``seeds``) under which the buggy program misbehaves.

        ``jobs > 1`` sweeps across worker processes (:mod:`repro.parallel`);
        ``manifested`` is evaluated worker-side, and the returned seed list
        is identical to the serial one.
        """
        from ..parallel import sweep_seeds

        merged = dict(cls.run_kwargs)
        merged.update(kwargs)
        summaries = sweep_seeds(cls.buggy, seeds, jobs=jobs,
                                predicate=cls.manifested, **merged)
        return [s.seed for s in summaries if s.manifested]
