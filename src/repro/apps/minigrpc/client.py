"""minigrpc client: unary calls, streaming calls, deadlines."""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from ...chan.cases import recv
from ...patterns.resilience import Backoff
from .transport import Connection, Listener, Request, Response, RpcError, Status


class Client:
    """A client bound to one connection; built via :func:`dial` it can
    redial, so a dropped connection is a retryable ``UNAVAILABLE``."""

    def __init__(self, rt, conn: Connection,
                 listener: Optional[Listener] = None):
        self._rt = rt
        self.conn = conn
        self._listener = listener
        self._calls = rt.atomic_int(0, name="client.calls")
        self._redials = rt.atomic_int(0, name="client.redials")

    # ------------------------------------------------------------------
    # Unary
    # ------------------------------------------------------------------

    def call(self, method: str, payload: Any = None,
             timeout: Optional[float] = None) -> Any:
        """Issue a unary RPC; raises :class:`RpcError` on failure. With a
        ``timeout``, waits on the response *or* the deadline — Figure 1's
        pattern, leak-free because the response channel is buffered."""
        request = Request(self._rt, method, payload)
        self.conn.send_request(request)
        self._calls.add(1)
        if timeout is None:
            response, ok = request.response.recv_ok()
        else:
            timer = self._rt.new_timer(timeout)
            index, response, ok = self._rt.select(
                recv(request.response), recv(timer.c)
            )
            if index == 1:
                raise RpcError(Status.CANCELLED, f"deadline {timeout}s exceeded")
            timer.stop()
        if not ok:
            # Response channel closed without a reply: the connection died.
            raise RpcError(Status.UNAVAILABLE, "response channel closed")
        if not response.ok:
            raise RpcError(response.code, str(response.payload))
        return response.payload

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------

    def redial(self) -> bool:
        """Replace a dead connection with a fresh one (if we can)."""
        if self._listener is None:
            return False
        if not self.conn.closed:
            return True
        try:
            self.conn = self._listener.dial()
        except RpcError:
            return False
        self._redials.add(1)
        return True

    def _retry_rpc(self, fn, transient, name: str, attempts: int,
                   backoff: Optional[Backoff]) -> Any:
        """Retry ``fn`` on ``transient`` codes, redialing + backing off."""
        policy = backoff if backoff is not None else Backoff(self._rt, name=name)
        for attempt in range(attempts):
            try:
                return fn()
            except RpcError as exc:
                # Re-raised from inside the handler: kept in a local past
                # it, the error would hold its own traceback's frames.
                if exc.code not in transient or attempt == attempts - 1:
                    raise
                self.redial()
                policy.sleep()
        raise AssertionError("_retry_rpc needs at least one attempt")

    def call_with_retry(self, method: str, payload: Any = None,
                        timeout: Optional[float] = None, attempts: int = 4,
                        backoff: Optional[Backoff] = None) -> Any:
        """A unary call retrying transient ``UNAVAILABLE`` (redialed before
        the next try) and ``CANCELLED`` failures with seeded backoff."""
        return self._retry_rpc(
            lambda: self.call(method, payload, timeout=timeout),
            (Status.UNAVAILABLE, Status.CANCELLED),
            f"client.retry.{method}", attempts, backoff)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def stream(self, method: str, payload: Any = None) -> Iterator[Any]:
        """Open a server-streaming RPC and iterate its frames."""
        request = Request(self._rt, method, payload, streaming=True)
        self.conn.send_request(request)
        self._calls.add(1)
        for frame in request.stream:
            yield frame
        response, ok = request.response.recv_ok()
        if not ok:
            # End-of-frames with no status: the stream was torn down
            # mid-flight, so the frames above may be truncated.
            raise RpcError(Status.UNAVAILABLE, "stream torn down")
        if not response.ok:
            raise RpcError(response.code, str(response.payload))

    def collect_stream(self, method: str, payload: Any = None) -> List[Any]:
        return list(self.stream(method, payload))

    def collect_stream_with_retry(self, method: str, payload: Any = None,
                                  attempts: int = 4,
                                  backoff: Optional[Backoff] = None) -> List[Any]:
        """Collect a full stream, re-issuing it from scratch after transient
        teardown; only a run ending with an OK status is returned."""
        return self._retry_rpc(
            lambda: self.collect_stream(method, payload),
            (Status.UNAVAILABLE, Status.CANCELLED, Status.INTERNAL),
            f"client.stream-retry.{method}", attempts, backoff)

    @property
    def calls_issued(self) -> int:
        return self._calls.load()

    def close(self) -> None:
        self.conn.close()


def dial(rt, listener: Listener) -> Client:
    """Connect a new client to a server's listener (redial-capable)."""
    return Client(rt, listener.dial(), listener=listener)
