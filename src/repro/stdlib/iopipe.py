"""``io.Pipe`` — a synchronous in-memory pipe.

Implemented the way Go implements it: a rendezvous over an unbuffered data
channel plus a ``done`` channel closed when either end is torn down.  The
blocking bug class it enables (4 of the paper's blocking bugs): a goroutine
stays blocked forever writing to — or reading from — a pipe nobody closes.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..chan import Channel, recv, send

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime


class PipeError(Exception):
    """Raised on operations against a closed pipe, like ``io.ErrClosedPipe``."""


class EOF(Exception):
    """End of stream, like ``io.EOF``."""


class Pipe:
    """The shared pipe state; users hold :class:`PipeReader`/:class:`PipeWriter`.

    The ends point at the pipe and the pipe does not point back, so a
    finished run's pipes are freed by reference counting.
    """

    def __init__(self, rt: "Runtime"):
        self._rt = rt
        self._data = Channel(rt, 0, name="pipe.data")
        self._done = Channel(rt, 0, name="pipe.done")
        self._err: Optional[Exception] = None
        self._write_closed = False

    def _raised(self, default: str) -> Exception:
        """A fresh copy of the pipe's error (``PipeError(default)`` when
        there is none), for one raise.

        Go hands back the same error value on every call.  Raising one
        stored instance again and again would chain each raise's traceback
        onto it, and those frames hold this pipe: a reference cycle through
        the pipe and the error.  A copy per raise keeps the type, arguments
        and attributes and avoids both.
        """
        err = self._err
        if err is None:
            return PipeError(default)
        fresh = type(err).__new__(type(err), *err.args)
        fresh.__dict__.update(err.__dict__)
        return fresh

    def _close(self, err: Optional[Exception]) -> None:
        if self._err is None:
            self._err = err or PipeError("io: read/write on closed pipe")
            self._done.close()


class PipeWriter:
    """The write end, like ``io.PipeWriter``."""

    def __init__(self, pipe: Pipe):
        self._pipe = pipe

    def write(self, data) -> int:
        """Write one chunk; blocks until the reader consumes it.

        Raises :class:`PipeError` (or the reader's close error) when the
        pipe was torn down.
        """
        pipe = self._pipe
        if pipe._write_closed:
            raise PipeError("io: write on closed pipe")
        if pipe._err is not None:
            raise pipe._raised("io: read/write on closed pipe")
        index, _value, _ok = pipe._rt.select(
            send(pipe._data, data),
            recv(pipe._done),
        )
        if index == 1:
            raise pipe._raised("io: write on closed pipe")
        return len(data) if hasattr(data, "__len__") else 1

    def close(self) -> None:
        """Close the write end: the reader sees EOF after draining."""
        pipe = self._pipe
        if pipe._write_closed:
            return
        pipe._write_closed = True
        pipe._data.close()

    def close_with_error(self, err: Exception) -> None:
        """Close and make the reader observe ``err``, like ``CloseWithError``."""
        pipe = self._pipe
        pipe._close(err)
        if not pipe._write_closed:
            pipe._write_closed = True
            pipe._data.close()


class PipeReader:
    """The read end, like ``io.PipeReader``."""

    def __init__(self, pipe: Pipe):
        self._pipe = pipe

    def read(self):
        """Read one chunk; blocks until a writer provides one.

        Raises :class:`EOF` when the writer closed cleanly, or the close
        error otherwise.
        """
        pipe = self._pipe
        if pipe._err is not None:
            raise pipe._raised("io: read/write on closed pipe")
        index, value, ok = pipe._rt.select(
            recv(pipe._data),
            recv(pipe._done),
        )
        if index == 1:
            raise pipe._raised("io: read on closed pipe")
        if not ok:
            raise EOF("EOF")
        return value

    def close(self) -> None:
        """Close the read end: blocked and future writes fail."""
        self._pipe._close(None)

    def close_with_error(self, err: Exception) -> None:
        self._pipe._close(err)
