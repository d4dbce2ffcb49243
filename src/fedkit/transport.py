"""Socket transport: a threaded TCP server around a ServerAgent, and the
client-side communicator with retry.

Every request/response body is an envelope (see :mod:`fedkit.wire`).
Model parameters travel as the checkpoint byte format; updates may instead
carry a compressed blob, flagged by the ``enc`` metadata key.  Bodies above
the inline limit are staged through a connector and referenced by hash.

Synchronous schedulers imply blocking semantics: a client's update
submission does not get its model reply until the round closes, so each
connection is served by its own thread parked on a condition variable.
A parked thread also waits for the agent's next deadline, and when that
passes it runs the deadline check itself: a group with a deadline has an
arrived member, so some thread is parked for every deadline.  The server's
clock starts at 0, as the simulator's does, so ``now`` means the same to a
scheduler on both paths.
"""
from __future__ import annotations

import math
import socket
import threading
import time
from typing import Optional

from . import errors
from .compression import CodecConfig, compress_params, decompress_params
from .errors import FedkitError, ProtocolError, ShapeMismatch, Unauthenticated
from .params import (
    ModelUpdate,
    ParameterSet,
    deserialize_params,
    serialize_params,  # noqa: F401  (perfbench/tracer.py wraps it on this module)
    serialize_pieces,
    serialized_size,
)
from .server import Reply, ServerAgent
from .wire import (
    DEFAULT_INLINE_LIMIT,
    MAX_PAYLOAD,
    MessageType,
    StaticTokenAuthenticator,
    decode_envelope,
    encode_frame,
    fetch_body,
    read_frame,
    send_frame,
    stage_body,
)

TOKEN_ENV_VAR = "FEDKIT_AUTH_TOKEN"


# -- payload codecs ------------------------------------------------------------


def encode_update(
    update: ModelUpdate,
    codec: Optional[CodecConfig] = None,
    connector=None,
    inline_limit: int = DEFAULT_INLINE_LIMIT,
):
    meta = {
        "client_id": update.client_id,
        "samples": str(update.sample_count),
        "steps": str(update.local_steps),
        "base_epoch": str(update.base_epoch),
        "delta": "1" if update.is_delta else "0",
    }
    if update.wall_meta is not None:
        meta["wall_start"] = repr(update.wall_meta[0])
        meta["wall_end"] = repr(update.wall_meta[1])
    if codec is not None:
        meta["enc"] = "qz"
        body = compress_params(update.params, codec)
    else:
        meta["enc"] = "raw"
        body = serialize_pieces(update.params)
    return stage_body(meta, body, connector, inline_limit)


def decode_update(
    payload: bytes, connectors: Optional[dict] = None, expect: Optional[ParameterSet] = None
) -> ModelUpdate:
    """The update in ``payload``.

    Given ``expect`` (a set of the model's structure), an update of another
    structure raises :class:`ShapeMismatch` before its tensors are allocated:
    a staged raw body must be ``serialized_size(expect)`` bytes long, checked
    before it is opened, and a qz blob is checked by its entry headers.  A
    raw body's entry headers are walked before its tensors are allocated,
    into buffers of its own structure's size, and the agent checks that
    structure; an inline body with ``expect``'s header bytes is not walked
    (see :func:`~fedkit.params.deserialize_params`).  Wall times that are
    not finite or run backwards, and negative counts, raise
    :class:`ProtocolError`.
    """
    env = decode_envelope(payload)
    meta = env.meta
    enc = meta.get("enc", "raw")
    if enc not in ("raw", "qz"):
        raise ProtocolError(f"unknown update encoding {enc!r}")
    if expect is not None and enc == "raw" and env.ref is not None:
        want = serialized_size(expect)
        if env.ref.size != want:
            raise ShapeMismatch(f"staged update is {env.ref.size} bytes, the model {want}")
    try:
        if enc == "qz":
            params = decompress_params(fetch_body(env, connectors), expect)
        else:
            params = fetch_body(env, connectors, lambda body: deserialize_params(body, expect))
        wall = None
        if "wall_start" in meta and "wall_end" in meta:
            wall = (float(meta["wall_start"]), float(meta["wall_end"]))
            if not (math.isfinite(wall[0]) and math.isfinite(wall[1]) and wall[0] <= wall[1]):
                raise ProtocolError(f"wall times {wall} are not a finite start and end")
        counts = int(meta["samples"]), int(meta["steps"]), int(meta["base_epoch"])
        if min(counts) < 0:
            raise ProtocolError(f"negative samples, steps or base epoch: {counts}")
        return ModelUpdate(meta["client_id"], params, meta.get("delta") == "1", *counts, wall)
    except (KeyError, ValueError) as e:
        raise ProtocolError(f"malformed update payload: {e}") from e


def encode_model_reply(
    params: ParameterSet,
    epoch: int,
    steps: int,
    done: bool,
    connector=None,
    inline_limit: int = DEFAULT_INLINE_LIMIT,
):
    meta = {"epoch": str(epoch), "steps": str(steps), "done": "1" if done else "0"}
    return stage_body(meta, serialize_pieces(params), connector, inline_limit)


def decode_model_reply(
    payload: bytes, connectors: Optional[dict] = None, expect: Optional[ParameterSet] = None
):
    """``(params, epoch, steps, done)``; a body of ``expect``'s structure is read by its layout."""
    env = decode_envelope(payload)
    try:
        return (
            fetch_body(env, connectors, lambda body: deserialize_params(body, expect)),
            int(env.meta["epoch"]),
            int(env.meta["steps"]),
            env.meta.get("done") == "1",
        )
    except (KeyError, ValueError) as e:
        raise ProtocolError(f"malformed model reply: {e}") from e


def _error_payload(exc: FedkitError) -> bytes:
    return stage_body({"code": type(exc).__name__, "message": str(exc)}, b"")


def raise_from_error_payload(payload: bytes):
    env = decode_envelope(payload)
    code = env.meta.get("code", "ProtocolError")
    message = env.meta.get("message", "remote error")
    exc_type = getattr(errors, code, None)
    if isinstance(exc_type, type) and issubclass(exc_type, FedkitError):
        raise exc_type(message)
    raise ProtocolError(f"{code}: {message}")


# -- server --------------------------------------------------------------------


class SocketServer:
    """Serves one ServerAgent over TCP; one thread per connection."""

    def __init__(
        self,
        agent: ServerAgent,
        host: str = "127.0.0.1",
        port: int = 0,
        token: bytes = b"",
        connectors: Optional[dict] = None,
        send_connector=None,
        inline_limit: int = DEFAULT_INLINE_LIMIT,
        max_payload: int = MAX_PAYLOAD,
    ):
        self.agent = agent
        self.auth = StaticTokenAuthenticator(token)
        self.connectors = connectors or {}
        self.send_connector = send_connector
        self.inline_limit = inline_limit
        self.max_payload = max_payload
        self.unauthorized_count = 0
        self._cond = threading.Condition()
        self._ready: dict[str, Reply] = {}
        self._stopping = False
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._conn_threads: list[threading.Thread] = []
        self._t0 = time.monotonic()

    def now(self) -> float:
        """Seconds since this server was built: the time its agent is given."""
        return time.monotonic() - self._t0

    # context manager keeps tests tidy
    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def start(self) -> None:
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        # shutdown (not just close) wakes the thread parked in accept();
        # otherwise it pins the kernel socket and the port stays listening
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for t in self._threads:
            t.join(timeout=2.0)
        # the accept thread has ended, so no connection thread is added now
        for t in self._conn_threads:
            t.join(timeout=2.0)

    def wait_done(self, timeout: Optional[float] = None) -> bool:
        """Block until the agent reaches its target, then drain connections.

        Returns False if the timeout passes or the server stops first.
        """
        with self._cond:
            self._cond.wait_for(lambda: self.agent.done or self._stopping, timeout)
        if not self.agent.done:
            return False
        # give straggler clients a moment to collect their done replies
        for t in list(self._conn_threads):
            t.join(timeout=5.0)
        return True

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            t.start()
            self._conn_threads.append(t)

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer frames until the peer ends; an error the agent raises ends this thread with it."""
        stream = conn.makefile("rwb")
        try:
            while True:
                try:
                    frame = read_frame(stream, self.max_payload)
                except FedkitError as e:
                    self._send(stream, encode_frame(MessageType.ERROR_REPLY, _error_payload(e)))
                    return
                except (OSError, ValueError):
                    return  # peer went away mid-read
                if frame is None or frame.msg_type == MessageType.SHUTDOWN:
                    return
                if not self._send(stream, self._handle(frame)):
                    return
        finally:
            try:
                stream.close()
            except OSError:
                pass
            conn.close()

    @staticmethod
    def _send(stream, frame) -> bool:
        """Send ``frame``; False if the peer went away mid-write."""
        try:
            send_frame(stream, frame)
        except (OSError, ValueError):
            return False
        return True

    def _handle(self, frame):
        try:
            if not self.auth.verify(frame.token):
                self.unauthorized_count += 1
                raise Unauthenticated("bad or missing auth token")
            handler = self._HANDLERS.get(frame.msg_type)
            if handler is None:
                raise ProtocolError(f"unexpected message type {frame.msg_type.name}")
            return handler(self, frame.payload)
        except FedkitError as e:
            return encode_frame(MessageType.ERROR_REPLY, _error_payload(e))

    def _on_model_request(self, payload: bytes):
        env = decode_envelope(payload)
        cid = env.meta.get("client_id")
        if not cid:
            raise ProtocolError("model request missing client_id")
        with self._cond:
            mine = self.agent.handle_model_request(cid, self.now())
        return self._model_reply(mine, self.agent.done)

    def _on_update_submit(self, payload: bytes):
        # a run's structure never changes, so any global model will do
        update = decode_update(payload, self.connectors, self.agent.global_params)
        cid = update.client_id
        with self._cond:
            if not self.agent.done:
                self._ready.update(self.agent.process_update(update, self.now()))
                self._cond.notify_all()
            while cid not in self._ready and not self.agent.done:
                if self._stopping:
                    raise ProtocolError("server shutting down")
                now, deadline = self.now(), self.agent.next_deadline()
                if deadline is None or now < deadline:
                    self._cond.wait(None if deadline is None else deadline - now)
                else:
                    self._ready.update(self.agent.check_deadlines(now))
                    self._cond.notify_all()
            # with no reply the run ended first, while this update was in
            # flight or parked: the client gets the final model and no steps
            mine = self._ready.pop(cid, None) or Reply(self.agent.global_params, self.agent.epoch, 0)
            done = self.agent.done
        return self._model_reply(mine, done)

    # plain functions, not bound methods: a server holding its own bound methods
    # would be a reference cycle, freed with its model only by the cycle collector
    _HANDLERS = {
        MessageType.MODEL_REQUEST: _on_model_request,
        MessageType.UPDATE_SUBMIT: _on_update_submit,
    }

    def _model_reply(self, mine: Reply, done: bool):
        reply = encode_model_reply(
            mine.params, mine.epoch, mine.next_steps, done, self.send_connector, self.inline_limit
        )
        return encode_frame(MessageType.MODEL_REPLY, reply)


# -- client --------------------------------------------------------------------


class Communicator:
    """Client-side request/response channel with reconnect-and-retry."""

    def __init__(
        self,
        host: str,
        port: int,
        token: bytes = b"",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.1,
        max_payload: int = MAX_PAYLOAD,
        connectors: Optional[dict] = None,
    ):
        self.host = host
        self.port = port
        self.token = token
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_payload = max_payload
        self.connectors = connectors or {}
        self._sock: Optional[socket.socket] = None
        self._stream = None

    def _connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._stream = self._sock.makefile("rwb")

    def close(self) -> None:
        if self._stream is not None:
            try:
                send_frame(self._stream, encode_frame(MessageType.SHUTDOWN, token=self.token))
            except (OSError, ValueError):
                pass
            try:
                self._stream.close()
            except OSError:
                pass
        if self._sock is not None:
            self._sock.close()
        self._sock = None
        self._stream = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _drop(self) -> None:
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
        self._sock = None
        self._stream = None

    def request(self, msg_type: MessageType, payload: bytes = b""):
        """Send one frame and return the reply frame.

        Transport faults (a refused or dropped connection, a timeout, a reply
        cut off mid-frame) are retried on a new connection.  An error reply
        is the server's answer, so its typed error is raised at once.
        """
        last: Exception = ProtocolError("unreachable")
        for attempt in range(self.max_retries + 1):
            try:
                self._connect()
                send_frame(self._stream, encode_frame(msg_type, payload, token=self.token))
                frame = read_frame(self._stream, self.max_payload)
                if frame is None:
                    raise ConnectionError("server closed the connection")
            except (ConnectionError, socket.timeout, OSError, errors.Truncated) as e:
                last = e
                self._drop()
                if attempt < self.max_retries:
                    time.sleep(self.backoff * (2**attempt))
                continue
            if frame.msg_type == MessageType.ERROR_REPLY:
                raise_from_error_payload(frame.payload)
            return frame
        if isinstance(last, ConnectionRefusedError):
            raise last  # nobody is listening: let callers see the real reason
        raise ProtocolError(f"request failed after {self.max_retries + 1} attempts: {last}")

    # convenience wrappers ------------------------------------------------

    def fetch_model(self, client_id: str):
        payload = stage_body({"client_id": client_id}, b"")
        frame = self.request(MessageType.MODEL_REQUEST, payload)
        return decode_model_reply(frame.payload, self.connectors)

    def submit_update(
        self,
        update: ModelUpdate,
        codec: Optional[CodecConfig] = None,
        connector=None,
        inline_limit: int = DEFAULT_INLINE_LIMIT,
    ):
        payload = encode_update(update, codec, connector, inline_limit)
        frame = self.request(MessageType.UPDATE_SUBMIT, payload)
        # the server took the update only if its structure is the model's
        return decode_model_reply(frame.payload, self.connectors, update.params)
