"""``golang.org/x/sync/errgroup`` — structured goroutine groups.

The post-paper ecosystem's standard answer to several studied bug shapes:
it packages the WaitGroup-plus-first-error-plus-cancellation pattern that
kernels like the gRPC error-overwrite bug get wrong by hand.

Semantics, as in Go:

* ``group.go(fn)`` runs ``fn`` in a goroutine; ``fn`` reports failure by
  *returning* an error (any non-None value) or raising.
* ``group.wait()`` blocks until all started functions finished and returns
  the **first** error, if any.
* With a context (``with_context``), the first error cancels the group's
  context so siblings can stop early.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING

from .context import CANCELED, Context

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime


class Group:
    """A collection of goroutines working on one task."""

    def __init__(self, rt: "Runtime", cancel: Optional[Callable[[], None]] = None):
        self._rt = rt
        self._wg = rt.waitgroup("errgroup")
        self._mu = rt.mutex("errgroup.err")
        self._err: Any = None
        self._cancel = cancel

    def go(self, fn: Callable[[], Any], name: Optional[str] = None) -> None:
        """Run ``fn`` in a goroutine; its return value is its error."""
        self._wg.add(1)

        def runner():
            try:
                err = fn()
            except Exception as exc:  # a raise is an error return
                # An error value, as in Go: its traceback's frames would
                # tie this group to the error in a reference cycle.
                err = exc.with_traceback(None)
            if err is not None:
                self._record(err)
            self._wg.done()

        self._rt.go(runner, name=name or "errgroup.worker")

    def _record(self, err: Any) -> None:
        with self._mu:
            if self._err is None:
                self._err = err
                if self._cancel is not None:
                    self._cancel()

    def wait(self) -> Any:
        """Block for every started function; returns the first error."""
        self._wg.wait()
        if self._cancel is not None:
            self._cancel()
        with self._mu:
            return self._err


def new_group(rt: "Runtime") -> Group:
    """A plain group, like ``errgroup.Group{}``."""
    return Group(rt)


def with_context(rt: "Runtime", parent: Optional[Context] = None
                 ) -> Tuple[Group, Context]:
    """A group whose context is cancelled by the first error, like
    ``errgroup.WithContext(ctx)``."""
    if parent is None:
        parent = rt.background()
    ctx, cancel = rt.with_cancel(parent)
    return Group(rt, cancel=cancel), ctx
