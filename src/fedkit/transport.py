"""Socket transport: a threaded TCP server around a ServerAgent, and the
client-side communicator with retry.

Every request/response body is an envelope (see :mod:`fedkit.wire`).
Model parameters travel as the checkpoint byte format; updates may instead
carry a compressed blob, flagged by the ``enc`` metadata key.  Bodies above
the inline limit are staged through a connector and referenced by hash.

Synchronous schedulers imply blocking semantics: a client's update
submission does not get its model reply until the round closes, so each
connection is served by its own thread parked on a condition variable.
"""
from __future__ import annotations

import json
import socket
import threading
import time
from typing import Optional

from . import errors
from .compression import CodecConfig, compress_params, decompress_params
from .errors import FedkitError, ProtocolError, Unauthenticated
from .params import (
    ModelUpdate,
    ParameterSet,
    deserialize_params,
    serialize_params,
)
from .schedulers import Reply
from .server import ServerAgent
from .wire import (
    DEFAULT_INLINE_LIMIT,
    MAX_PAYLOAD,
    Envelope,
    MessageType,
    StaticTokenAuthenticator,
    decode_envelope,
    encode_frame,
    fetch_body,
    read_frame,
    stage_body,
)

TOKEN_ENV_VAR = "FEDKIT_AUTH_TOKEN"
_POLL_INTERVAL = 0.02


# -- payload codecs ------------------------------------------------------------


def encode_update(
    update: ModelUpdate,
    codec: Optional[CodecConfig] = None,
    connector=None,
    inline_limit: int = DEFAULT_INLINE_LIMIT,
) -> bytes:
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
        body = serialize_params(update.params)
    return stage_body(meta, body, connector, inline_limit)


def decode_update(payload: bytes, connectors: Optional[dict] = None) -> ModelUpdate:
    env = decode_envelope(payload)
    body = fetch_body(env, connectors)
    meta = env.meta
    enc = meta.get("enc", "raw")
    if enc not in ("raw", "qz"):
        raise ProtocolError(f"unknown update encoding {enc!r}")
    try:
        params = decompress_params(body) if enc == "qz" else deserialize_params(body)
        wall = None
        if "wall_start" in meta and "wall_end" in meta:
            wall = (float(meta["wall_start"]), float(meta["wall_end"]))
        return ModelUpdate(
            client_id=meta["client_id"],
            params=params,
            is_delta=meta.get("delta") == "1",
            sample_count=int(meta["samples"]),
            local_steps=int(meta["steps"]),
            base_epoch=int(meta["base_epoch"]),
            wall_meta=wall,
        )
    except (KeyError, ValueError) as e:
        raise ProtocolError(f"malformed update payload: {e}") from e


def encode_model_reply(
    params: ParameterSet,
    epoch: int,
    steps: int,
    done: bool,
    connector=None,
    inline_limit: int = DEFAULT_INLINE_LIMIT,
) -> bytes:
    meta = {"epoch": str(epoch), "steps": str(steps), "done": "1" if done else "0"}
    return stage_body(meta, serialize_params(params), connector, inline_limit)


def decode_model_reply(payload: bytes, connectors: Optional[dict] = None):
    env = decode_envelope(payload)
    body = fetch_body(env, connectors)
    try:
        return (
            deserialize_params(body),
            int(env.meta["epoch"]),
            int(env.meta["steps"]),
            env.meta.get("done") == "1",
        )
    except (KeyError, ValueError) as e:
        raise ProtocolError(f"malformed model reply: {e}") from e


def _error_payload(exc: FedkitError) -> bytes:
    env = Envelope({"code": type(exc).__name__, "message": str(exc)}, body=b"")
    return stage_body(env.meta, b"")


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
        config_provider=None,
    ):
        self.agent = agent
        self.auth = StaticTokenAuthenticator(token)
        self.connectors = connectors or {}
        self.send_connector = send_connector
        self.inline_limit = inline_limit
        self.max_payload = max_payload
        self.config_provider = config_provider or (lambda cid: {})
        self.unauthorized_count = 0
        self._cond = threading.Condition()
        self._ready: dict[str, Reply] = {}
        self._stopping = False
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._conn_threads: list[threading.Thread] = []

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
        t = threading.Thread(target=self._deadline_loop, daemon=True)
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

    def wait_done(self, timeout: Optional[float] = None) -> bool:
        """Block until the agent reaches its target, then drain connections."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.agent.done:
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(_POLL_INTERVAL)
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

    def _deadline_loop(self) -> None:
        while not self._stopping:
            time.sleep(_POLL_INTERVAL)
            with self._cond:
                if self._stopping:
                    return
                replies = self.agent.check_deadlines(time.monotonic())
                if replies:
                    self._ready.update(replies)
                    self._cond.notify_all()

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while True:
                try:
                    frame = read_frame(stream, self.max_payload)
                except FedkitError as e:
                    stream.write(encode_frame(MessageType.ERROR_REPLY, _error_payload(e)))
                    stream.flush()
                    return
                if frame is None or frame.msg_type == MessageType.SHUTDOWN:
                    return
                stream.write(self._handle(frame))
                stream.flush()
        except (OSError, ValueError):
            pass  # peer went away mid-write
        finally:
            try:
                stream.close()
            except OSError:
                pass
            conn.close()

    def _handle(self, frame) -> bytes:
        try:
            if not self.auth.verify(frame.token):
                self.unauthorized_count += 1
                raise Unauthenticated("bad or missing auth token")
            handler = {
                MessageType.CONFIG_REQUEST: self._on_config_request,
                MessageType.MODEL_REQUEST: self._on_model_request,
                MessageType.UPDATE_SUBMIT: self._on_update_submit,
            }.get(frame.msg_type)
            if handler is None:
                raise ProtocolError(f"unexpected message type {frame.msg_type.name}")
            return handler(frame.payload)
        except FedkitError as e:
            return encode_frame(MessageType.ERROR_REPLY, _error_payload(e))

    def _on_config_request(self, payload: bytes) -> bytes:
        env = decode_envelope(payload)
        cid = env.meta.get("client_id", "")
        body = json.dumps(self.config_provider(cid), sort_keys=True).encode("utf-8")
        return encode_frame(MessageType.CONFIG_REPLY, stage_body({}, body))

    def _on_model_request(self, payload: bytes) -> bytes:
        env = decode_envelope(payload)
        cid = env.meta.get("client_id")
        if not cid:
            raise ProtocolError("model request missing client_id")
        with self._cond:
            params, epoch, steps = self.agent.handle_model_request(cid, time.monotonic())
        reply = encode_model_reply(
            params, epoch, steps, self.agent.done, self.send_connector, self.inline_limit
        )
        return encode_frame(MessageType.MODEL_REPLY, reply)

    def _on_update_submit(self, payload: bytes) -> bytes:
        update = decode_update(payload, self.connectors)
        cid = update.client_id
        with self._cond:
            done = self.agent.done
            if done:
                # the run ended while this update was in flight: it is not
                # aggregated, and the client learns that the run is over
                params, epoch, steps = self.agent.global_params, self.agent.epoch, 0
            else:
                replies = self.agent.process_update(update, time.monotonic())
                if replies:
                    self._ready.update(replies)
                    self._cond.notify_all()
                while cid not in self._ready:
                    if self._stopping:
                        raise ProtocolError("server shutting down")
                    self._cond.wait(timeout=_POLL_INTERVAL)
                mine = self._ready.pop(cid)
                params, epoch, steps = mine.params, mine.epoch, mine.next_steps
                done = self.agent.done
        reply = encode_model_reply(
            params, epoch, steps, done, self.send_connector, self.inline_limit
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
                self._stream.write(encode_frame(MessageType.SHUTDOWN, token=self.token))
                self._stream.flush()
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
        """Send one frame, return the reply frame; retries on transport faults."""
        last: Exception = ProtocolError("unreachable")
        for attempt in range(self.max_retries + 1):
            try:
                self._connect()
                self._stream.write(encode_frame(msg_type, payload, token=self.token))
                self._stream.flush()
                frame = read_frame(self._stream, self.max_payload)
                if frame is None:
                    raise ConnectionError("server closed the connection")
                if frame.msg_type == MessageType.ERROR_REPLY:
                    raise_from_error_payload(frame.payload)
                return frame
            except (ConnectionError, socket.timeout, OSError, errors.Truncated) as e:
                last = e
                self._drop()
                if attempt < self.max_retries:
                    time.sleep(self.backoff * (2**attempt))
        if isinstance(last, ConnectionRefusedError):
            raise last  # nobody is listening: let callers see the real reason
        raise ProtocolError(f"request failed after {self.max_retries + 1} attempts: {last}")

    # convenience wrappers ------------------------------------------------

    def fetch_config(self, client_id: str) -> dict:
        payload = stage_body({"client_id": client_id}, b"")
        frame = self.request(MessageType.CONFIG_REQUEST, payload)
        env = decode_envelope(frame.payload)
        return json.loads(fetch_body(env, self.connectors).decode("utf-8"))

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
        return decode_model_reply(frame.payload, self.connectors)
