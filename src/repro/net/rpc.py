"""A small RPC layer over :class:`repro.net.Conn`, modeled on gRPC.

Unary calls and server-side streaming over one multiplexed connection.
The wire format is tagged tuples — ``("req", id, method, payload,
streaming)``, ``("res", id, code, payload)``, ``("frm", id, value)``,
``("eos", id)`` — and the concurrency structure copies gRPC-Go's:

* the **server** runs one goroutine per connection and one per request
  (the paper's leaked-handler shape — here every handler exits because
  ``Conn`` close unblocks it with EOF);
* the **client** runs one receive pump demultiplexing responses by
  request id into per-request **capacity-1** channels, the Figure 1 fix
  applied as library policy: a caller that times out and walks away never
  strands the pump on the handoff.

Deadlines are virtual-clock selects over (response, timer); retries reuse
:class:`repro.patterns.resilience.Backoff` so all jitter is seeded.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, TYPE_CHECKING

from ..chan.cases import recv as recv_case
from ..runtime.errors import GoPanic
from ..patterns.resilience import Backoff
from .conn import Conn
from .fabric import NetError

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.runtime import Runtime
    from .node import Node


class Status:
    """gRPC-style status codes (the subset the mini-apps need)."""

    OK = "OK"
    NOT_FOUND = "NOT_FOUND"
    INTERNAL = "INTERNAL"
    UNAVAILABLE = "UNAVAILABLE"
    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    FAILED_PRECONDITION = "FAILED_PRECONDITION"


class RpcError(Exception):
    """A non-OK RPC outcome."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"rpc {code}: {detail}" if detail else f"rpc {code}")
        self.code = code
        self.detail = detail

    @property
    def retryable(self) -> bool:
        return self.code in (Status.UNAVAILABLE, Status.DEADLINE_EXCEEDED)


# Handler signatures:
#   unary:     handler(payload) -> response payload
#   streaming: handler(payload, send) -> None, calling send(value) per frame
Handler = Callable[..., Any]


class RpcServer:
    """Serves registered methods on a node's listener."""

    def __init__(self, node: "Node", name: str = "rpc"):
        self._node = node
        self._rt: "Runtime" = node._rt
        self.name = name
        self._unary: Dict[str, Handler] = {}
        self._streaming: Dict[str, Handler] = {}
        self.served = 0
        self.errors = 0

    def register(self, method: str, handler: Handler) -> None:
        self._unary[method] = handler

    def register_streaming(self, method: str, handler: Handler) -> None:
        self._streaming[method] = handler

    def serve(self, listener) -> None:
        """Start the accept loop (returns immediately; runs on the node)."""

        def accept_loop() -> None:
            for conn in listener.accept_loop():
                self._node.track(conn)
                self._node.go(self._serve_conn, conn, name=f"{self.name}.conn")

        self._node.go(accept_loop, name=f"{self.name}.accept")

    # ------------------------------------------------------------------

    def _serve_conn(self, conn: Conn) -> None:
        for frame in conn:
            if not isinstance(frame, tuple) or len(frame) != 5 or frame[0] != "req":
                continue  # unknown frame: drop, like an HTTP/2 protocol error
            _, rid, method, payload, streaming = frame
            self._node.go(self._handle, conn, rid, method, payload, streaming,
                          name=f"{self.name}.call")

    def _handle(self, conn: Conn, rid: int, method: str, payload: Any,
                streaming: bool) -> None:
        self.served += 1
        try:
            if streaming:
                handler = self._streaming.get(method)
                if handler is None:
                    self._respond(conn, rid, Status.NOT_FOUND, method)
                    return
                handler(payload, lambda value: conn.send(("frm", rid, value)))
                conn.send(("eos", rid))
                self._respond(conn, rid, Status.OK, None)
            else:
                handler = self._unary.get(method)
                if handler is None:
                    self._respond(conn, rid, Status.NOT_FOUND, method)
                    return
                self._respond(conn, rid, Status.OK, handler(payload))
        except RpcError as err:
            self.errors += 1
            self._respond(conn, rid, err.code, err.detail)
        except (GoPanic, NetError):
            # The connection died under us (node stop, peer crash, chaos
            # close): nothing to respond on.
            self.errors += 1
        except Exception as err:  # handler bug -> INTERNAL, like gRPC
            self.errors += 1
            self._respond(conn, rid, Status.INTERNAL, repr(err))

    def _respond(self, conn: Conn, rid: int, code: str, payload: Any) -> None:
        try:
            conn.send(("res", rid, code, payload))
        except (GoPanic, NetError):
            self.errors += 1


class RpcClient:
    """One multiplexed client connection with a demultiplexing pump."""

    def __init__(self, node: "Node", addr: str, name: str = "rpc"):
        self._node = node
        self._rt: "Runtime" = node._rt
        self.addr = addr
        self.name = name
        self.conn = node.dial(addr)
        self._next_id = 0
        self._pending: Dict[int, Any] = {}   # rid -> cap-1 response channel
        self._streams: Dict[int, Any] = {}   # rid -> frame channel
        self._broken = False                 # pump saw EOF: peer gone
        node.go(self._pump, name=f"{name}.pump")

    @property
    def broken(self) -> bool:
        """True once the transport died under the client (peer crash/stop).
        Every subsequent call fails fast with UNAVAILABLE — the
        deterministic connection-reset surface redial loops key off."""
        return self._broken or self.conn.closed

    def _pump(self) -> None:
        for frame in self.conn:
            tag, rid = frame[0], frame[1]
            if tag == "res":
                ch = self._pending.pop(rid, None)
                if ch is not None:
                    # Capacity 1 and the sole sender: can never block, so
                    # an abandoned (timed-out) call never strands the pump.
                    ch.try_send((frame[2], frame[3]))
                # A non-OK status can end a stream without EOS; close the
                # frame channel so the consuming iterator terminates.
                stream_ch = self._streams.pop(rid, None)
                if stream_ch is not None and not stream_ch.closed:
                    stream_ch.close()
            elif tag == "frm":
                ch = self._streams.get(rid)
                if ch is not None:
                    try:
                        ch.send(frame[2])
                    except GoPanic:
                        # The consumer abandoned the stream and closed the
                        # frame channel (deadline, early break).  Closing
                        # wakes a pump blocked on this handoff — the
                        # Figure 1 policy extended to streams: an abandoned
                        # consumer never strands the pump.
                        pass
            elif tag == "eos":
                ch = self._streams.pop(rid, None)
                if ch is not None and not ch.closed:
                    ch.close()
        # EOF: the peer is gone (crash, stop, reset).  Mark the client
        # broken so the next call/stream fails immediately instead of
        # waiting out its deadline, then fail everything outstanding.
        self._broken = True
        for rid, ch in list(self._pending.items()):
            if not ch.closed:
                ch.close()
        self._pending.clear()
        for rid, ch in list(self._streams.items()):
            if not ch.closed:
                ch.close()
        self._streams.clear()

    # ------------------------------------------------------------------

    def call(self, method: str, payload: Any = None,
             timeout: Optional[float] = None) -> Any:
        """Unary call.  Raises :class:`RpcError` on any non-OK outcome."""
        if self.broken:
            raise RpcError(Status.UNAVAILABLE, "connection reset by peer")
        rid = self._next_id
        self._next_id += 1
        ch = self._rt.make_chan(1, name=f"{self.name}.resp#{rid}")
        self._pending[rid] = ch
        try:
            self.conn.send(("req", rid, method, payload, False))
        except (GoPanic, NetError):
            self._pending.pop(rid, None)
            raise RpcError(Status.UNAVAILABLE, "connection closed")
        if timeout is None:
            result, ok = ch.recv_ok()
        else:
            timer = self._rt.new_timer(timeout)
            index, value, ok = self._rt.select(recv_case(ch),
                                               recv_case(timer.c))
            if index == 1:
                self._pending.pop(rid, None)
                raise RpcError(Status.DEADLINE_EXCEEDED,
                               f"{method} after {timeout:g}s")
            timer.stop()
            result = value
        if not ok:
            raise RpcError(Status.UNAVAILABLE, "connection closed")
        code, response = result
        if code != Status.OK:
            raise RpcError(code, str(response))
        return response

    def call_with_retry(self, method: str, payload: Any = None,
                        timeout: Optional[float] = 1.0, attempts: int = 4,
                        backoff: Optional[Backoff] = None) -> Any:
        """Unary call retried on retryable statuses with seeded backoff."""
        policy = backoff if backoff is not None else Backoff(
            self._rt, name=f"{self.name}.{method}")
        for attempt in range(attempts):
            try:
                return self.call(method, payload, timeout=timeout)
            except RpcError as err:
                # The last failure is re-raised from inside its handler:
                # kept in a local past it, it would hold its own
                # traceback's frames, a reference cycle.
                if not err.retryable or attempt + 1 == attempts:
                    raise
                policy.sleep()
        raise AssertionError("call_with_retry needs at least one attempt")

    def stream(self, method: str, payload: Any = None, buffer: int = 16,
               timeout: Optional[float] = None) -> Iterator[Any]:
        """Server-streaming call: iterate response frames until EOS.

        ``timeout`` bounds the wait for *each* frame (and the trailing
        status) on the virtual clock, like a per-message gRPC deadline —
        the tool that keeps stream consumers live over partitioned or
        lossy links.  Raises :class:`RpcError` after the stream if it
        ended non-OK (e.g. the connection dropped mid-stream ->
        UNAVAILABLE, a stalled link -> DEADLINE_EXCEEDED).
        """
        if self.broken:
            raise RpcError(Status.UNAVAILABLE, "connection reset by peer")
        rid = self._next_id
        self._next_id += 1
        frames = self._rt.make_chan(buffer, name=f"{self.name}.stream#{rid}")
        status_ch = self._rt.make_chan(1, name=f"{self.name}.status#{rid}")
        self._streams[rid] = frames
        self._pending[rid] = status_ch
        try:
            self.conn.send(("req", rid, method, payload, True))
        except (GoPanic, NetError):
            self._streams.pop(rid, None)
            self._pending.pop(rid, None)
            raise RpcError(Status.UNAVAILABLE, "connection closed")
        try:
            while True:
                if timeout is None:
                    value, ok = frames.recv_ok()
                else:
                    timer = self._rt.new_timer(timeout)
                    index, value, ok = self._rt.select(recv_case(frames),
                                                       recv_case(timer.c))
                    if index == 1:
                        raise RpcError(Status.DEADLINE_EXCEEDED,
                                       f"{method} stream after {timeout:g}s")
                    timer.stop()
                if not ok:
                    break
                yield value
        finally:
            # Deterministic abandonment: drop our registration and close
            # the frame channel so a pump mid-handoff is woken, not
            # stranded (its send panics; the pump swallows it).
            self._streams.pop(rid, None)
            if not frames.closed:
                frames.close()
        if timeout is None:
            result, ok = status_ch.recv_ok()
        else:
            timer = self._rt.new_timer(timeout)
            index, result, ok = self._rt.select(recv_case(status_ch),
                                                recv_case(timer.c))
            if index == 1:
                self._pending.pop(rid, None)
                raise RpcError(Status.DEADLINE_EXCEEDED,
                               f"{method} status after {timeout:g}s")
            timer.stop()
        if not ok:
            raise RpcError(Status.UNAVAILABLE, "connection closed mid-stream")
        code, response = result
        if code != Status.OK:
            raise RpcError(code, str(response))

    def close(self) -> None:
        """Close the underlying connection (pump exits, callers fail)."""
        self.conn.shutdown()


def connect_with_retry(node: "Node", addr: str, name: str = "rpc",
                       attempts: int = 6,
                       backoff: Optional[Backoff] = None) -> RpcClient:
    """Dial until the listener is up/reachable, with seeded backoff —
    the redial loop every resilient client in the mini-apps uses."""
    policy = backoff if backoff is not None else Backoff(
        node._rt, name=f"{name}.dial")
    for attempt in range(attempts):
        try:
            return RpcClient(node, addr, name=name)
        except NetError:
            if attempt + 1 == attempts:
                raise
            policy.sleep()
    raise AssertionError("connect_with_retry needs at least one attempt")
