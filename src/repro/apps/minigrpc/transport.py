"""minigrpc transport: in-memory connections and frames.

The "network" is a pair of channels per connection, mirroring how gRPC-Go
multiplexes streams over one HTTP/2 transport.  Requests carry their own
response channel — the common Go RPC idiom that Figure 1's bug lives in.
"""

from __future__ import annotations

from typing import Any, Optional

from ...runtime.errors import GoPanic


class Status:
    """RPC status codes (a tiny subset of gRPC's)."""

    OK = "OK"
    NOT_FOUND = "NOT_FOUND"
    CANCELLED = "CANCELLED"
    UNAVAILABLE = "UNAVAILABLE"
    INTERNAL = "INTERNAL"


class RpcError(Exception):
    """Raised on the client for non-OK statuses."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class Request:
    """One unary or stream-opening request frame."""

    def __init__(self, rt, method: str, payload: Any, streaming: bool = False):
        self.id = rt.fresh_id("grpc.request")
        self.method = method
        self.payload = payload
        self.streaming = streaming
        # Buffered by one so a late server response never blocks the
        # handler goroutine if the client gave up (the Figure 1 fix,
        # applied as library policy).
        self.response = rt.make_chan(1, name=f"resp-{self.id}")
        # Stream frames flow on their own channel, closed at end-of-stream.
        self.stream = rt.make_chan(4, name=f"stream-{self.id}") if streaming else None


class Response:
    """A unary response frame."""

    def __init__(self, code: str, payload: Any = None):
        self.code = code
        self.payload = payload

    @property
    def ok(self) -> bool:
        return self.code == Status.OK


class Connection:
    """One client<->server connection carrying request frames.

    Flow-control accounting (frames/bytes in flight) lives under the
    connection mutex, mirroring gRPC-Go's transport where HTTP/2 window
    bookkeeping makes Mutex the most-used primitive (Table 4).
    """

    WINDOW = 64  # outstanding-frame budget, like an HTTP/2 window

    def __init__(self, rt, queue_depth: int = 16):
        self.id = rt.fresh_id("grpc.connection")
        self._rt = rt
        self.requests = rt.make_chan(queue_depth, name=f"conn-{self.id}")
        self.mu = rt.mutex(f"conn-{self.id}.flow")
        self._closed = False
        self._frames_sent = 0
        self._in_flight = 0

    def send_request(self, request: Request) -> None:
        self.mu.lock()
        if self._closed:
            self.mu.unlock()
            raise RpcError(Status.UNAVAILABLE, "connection closed")
        if self._in_flight >= self.WINDOW:
            self.mu.unlock()
            raise RpcError(Status.UNAVAILABLE, "flow-control window exhausted")
        self._frames_sent += 1
        self._in_flight += 1
        self.mu.unlock()
        try:
            self.requests.send(request)
        except GoPanic:
            # The connection dropped between the window check and the send
            # (fault injection, server-side close): surface a retryable
            # status instead of crashing the caller.
            with self.mu:
                self._closed = True
                if self._in_flight > 0:
                    self._in_flight -= 1
            raise RpcError(Status.UNAVAILABLE, "connection closed") from None

    @property
    def closed(self) -> bool:
        """True once either side (or a fault) tore the connection down."""
        return self._closed or self.requests.closed

    def frame_done(self) -> None:
        """Return window credit once a request's response was produced."""
        with self.mu:
            if self._in_flight > 0:
                self._in_flight -= 1

    def stats(self):
        with self.mu:
            return self._frames_sent, self._in_flight

    def close(self) -> None:
        """Half-close from the client: no more requests will arrive."""
        with self.mu:
            if self._closed:
                return
            self._closed = True
        if not self.requests.closed:  # a fault may have closed it already
            self.requests.close()


class Listener:
    """The server's accept queue, like ``net.Listener``."""

    def __init__(self, rt, backlog: int = 8):
        self._rt = rt
        self.incoming = rt.make_chan(backlog, name="listener")
        self._closed = False

    def dial(self) -> Connection:
        """Client side: create a connection and hand it to the server."""
        conn = Connection(self._rt)
        try:
            self.incoming.send(conn)
        except GoPanic:
            raise RpcError(Status.UNAVAILABLE, "listener closed") from None
        return conn

    def accept_loop(self):
        """Iterate accepted connections until :meth:`shutdown`."""
        return iter(self.incoming)

    def shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            if not self.incoming.closed:
                self.incoming.close()
