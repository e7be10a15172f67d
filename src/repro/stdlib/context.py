"""``context`` — request-scoped cancellation, deadlines and values.

Faithful to the behaviors the studied bugs depend on:

* ``Done()`` is a channel closed on cancellation; ``Background().Done()``
  is a nil channel (never ready in a select).
* ``WithCancel``/``WithTimeout`` under a cancellable parent attach a
  **watcher goroutine** that propagates the parent's cancellation — exactly
  the goroutine that leaks in Figure 6 when the only reference to the
  context (and its cancel function) is overwritten.  Calling the returned
  ``cancel`` releases it; never calling it leaks it, as in real Go.
* ``WithTimeout`` cancels with ``DEADLINE_EXCEEDED`` on the virtual clock.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple, TYPE_CHECKING

from ..chan import Channel, recv

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime


class ContextError:
    """Sentinel error values, like ``context.Canceled``."""

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return f"context.{self.label}"


CANCELED = ContextError("Canceled")
DEADLINE_EXCEEDED = ContextError("DeadlineExceeded")


class Context:
    """Base context: no deadline, never cancelled, no values."""

    def __init__(self, rt: "Runtime"):
        self._rt = rt

    def done(self):
        """The cancellation channel; a nil channel when uncancellable."""
        return self._rt.nil_chan()

    def err(self) -> Optional[ContextError]:
        return None

    def value(self, key: Any) -> Any:
        return None

    def deadline(self) -> Tuple[Optional[float], bool]:
        return None, False

    def __repr__(self) -> str:
        return "context.Background"


class _CancelContext(Context):
    """A context with a Done channel and cancellation propagation."""

    def __init__(self, rt: "Runtime", parent: Context):
        super().__init__(rt)
        self._parent = parent
        self._done = Channel(rt, 0, name="ctx.done")
        self._err: Optional[ContextError] = None
        # Visible to the fault injector's cancellation storms.
        rt._cancel_contexts.append(self)

    def done(self):
        return self._done

    def err(self) -> Optional[ContextError]:
        return self._err

    def value(self, key: Any) -> Any:
        return self._parent.value(key)

    def deadline(self) -> Tuple[Optional[float], bool]:
        return self._parent.deadline()

    def cancel(self, err: ContextError = CANCELED) -> None:
        """Idempotent cancellation: closes Done exactly once."""
        if self._err is not None:
            return
        self._err = err
        self._done.close()

    def __repr__(self) -> str:
        state = repr(self._err) if self._err else "active"
        return f"<context.WithCancel {state}>"


class _TimeoutContext(_CancelContext):
    def __init__(self, rt: "Runtime", parent: Context, deadline_at: float):
        super().__init__(rt, parent)
        self._deadline_at = deadline_at
        self._timer_handle = rt.sched.clock.call_at(
            deadline_at, lambda: self.cancel(DEADLINE_EXCEEDED)
        )

    def deadline(self) -> Tuple[Optional[float], bool]:
        return self._deadline_at, True

    def cancel(self, err: ContextError = CANCELED) -> None:
        self._timer_handle.cancel()
        super().cancel(err)

    def __repr__(self) -> str:
        state = repr(self._err) if self._err else "active"
        return f"<context.WithTimeout deadline={self._deadline_at:g} {state}>"


class _ValueContext(Context):
    def __init__(self, rt: "Runtime", parent: Context, key: Any, val: Any):
        super().__init__(rt)
        self._parent = parent
        self._key = key
        self._val = val

    def done(self):
        return self._parent.done()

    def err(self) -> Optional[ContextError]:
        return self._parent.err()

    def value(self, key: Any) -> Any:
        if key == self._key:
            return self._val
        return self._parent.value(key)

    def deadline(self) -> Tuple[Optional[float], bool]:
        return self._parent.deadline()

    def __repr__(self) -> str:
        return f"<context.WithValue {self._key!r}>"


def background(rt: "Runtime") -> Context:
    """Root context, like ``context.Background()``."""
    return Context(rt)


def _attach_watcher(rt: "Runtime", parent: Context, child: _CancelContext) -> None:
    """Propagate parent cancellation to the child via a watcher goroutine.

    This goroutine is precisely the resource Figure 6's bug leaks: it lives
    until *either* context is done.
    """
    if isinstance(parent, Context) and type(parent) in (Context, _ValueContext):
        root = parent
        while isinstance(root, _ValueContext):
            root = root._parent
        if type(root) is Context:
            return  # uncancellable ancestry: nothing to watch

    def watch_parent_cancel():
        index, _value, _ok = rt.select(recv(parent.done()), recv(child.done()))
        if index == 0:
            err = parent.err() or CANCELED
            child.cancel(err)

    rt.go(watch_parent_cancel, name="context.watcher")


def with_cancel(rt: "Runtime", parent: Context) -> Tuple[_CancelContext, Callable[[], None]]:
    """Like ``context.WithCancel(parent)``: returns ``(ctx, cancel)``."""
    ctx = _CancelContext(rt, parent)
    _attach_watcher(rt, parent, ctx)

    def cancel() -> None:
        ctx.cancel(CANCELED)

    return ctx, cancel


def with_timeout(rt: "Runtime", parent: Context, timeout: float
                 ) -> Tuple[_TimeoutContext, Callable[[], None]]:
    """Like ``context.WithTimeout(parent, d)``: returns ``(ctx, cancel)``."""
    ctx = _TimeoutContext(rt, parent, rt.now() + max(timeout, 0.0))
    _attach_watcher(rt, parent, ctx)

    def cancel() -> None:
        ctx.cancel(CANCELED)

    return ctx, cancel


def with_value(rt: "Runtime", parent: Context, key: Any, val: Any) -> _ValueContext:
    """Like ``context.WithValue(parent, key, val)``."""
    return _ValueContext(rt, parent, key, val)
