import dataclasses
import gc
import hashlib
import math
import socket
import struct
import threading
import time
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit.aggregators import FedAvgAggregator
from fedkit.client import ClientState, TrainConfig, local_train
from fedkit.compression import CodecConfig
from fedkit.errors import (
    ChecksumMismatch,
    FedkitError,
    NonFiniteValue,
    OversizedPayload,
    ProtocolError,
    ShapeMismatch,
    Truncated,
    Unauthenticated,
    UnknownClient,
)
from fedkit.models import ModelSpec, PartitionSpec, init_params, make_blobs, partition
from fedkit.params import ModelUpdate, ParameterSet, save_params, serialize_params
from fedkit.schedulers import AsyncScheduler, CompassScheduler, SyncScheduler
from fedkit.server import ServerAgent
from fedkit.transport import (
    Communicator,
    SocketServer,
    decode_model_reply,
    decode_update,
    encode_model_reply,
    encode_update,
)
from fedkit.wire import (
    DEFAULT_INLINE_LIMIT,
    DataRef,
    Envelope,
    FilesystemConnector,
    MessageType,
    decode_envelope,
    encode_envelope,
    encode_frame,
    read_frame,
    stage_body,
)


def toy_update(n=16, delta=False, wall=(1.5, 3.25)):
    params = ParameterSet({"w": np.arange(n, dtype=np.float32)})
    return ModelUpdate(
        client_id="c0",
        params=params,
        is_delta=delta,
        sample_count=100,
        local_steps=7,
        base_epoch=2,
        wall_meta=wall,
    )


class TestUpdateCodec:
    def test_raw_roundtrip(self):
        u = toy_update()
        out = decode_update(bytes(encode_update(u)))
        assert out.client_id == u.client_id
        assert out.params == u.params
        assert out.sample_count == 100
        assert out.local_steps == 7
        assert out.base_epoch == 2
        assert not out.is_delta
        assert out.wall_meta == (1.5, 3.25)

    def test_wall_meta_optional(self):
        u = toy_update(wall=None)
        assert decode_update(bytes(encode_update(u))).wall_meta is None

    def test_compressed_roundtrip_respects_bound(self):
        rng = np.random.default_rng(0)
        params = ParameterSet({"w": rng.normal(size=5000).astype(np.float32)})
        u = ModelUpdate("c1", params, True, 10, 5, 0, None)
        codec = CodecConfig(eb_rel=0.01)
        out = decode_update(encode_update(u, codec=codec))
        w = out.params["w"]
        ref = params["w"]
        bound = 0.01 * (ref.max() - ref.min()) + 1e-12
        assert np.abs(w - ref).max() <= bound
        assert out.is_delta

    def test_unknown_encoding_rejected(self):
        u = toy_update()
        meta = {"client_id": "c0", "samples": "1", "steps": "1", "base_epoch": "0",
                "delta": "0", "enc": "zz"}
        with pytest.raises(ProtocolError, match="zz"):
            decode_update(stage_body(meta, serialize_params(u.params)))

    def test_dataref_spill_roundtrip(self, tmp_path):
        c = FilesystemConnector(tmp_path)
        u = toy_update(n=4096)
        payload = encode_update(u, connector=c, inline_limit=1024)
        assert len(payload) < 1024  # body went out of band
        out = decode_update(payload, {"fs": c})
        assert out.params == u.params


def qz_update_declaring(shape) -> bytes:
    """An update of client "a" whose 36-byte qz blob declares one float64 ``shape`` tensor "w"."""
    block = struct.pack(">Bd", 1, 0.0)  # a constant qz block
    blob = struct.pack(f">IH1sBBB{len(shape)}I", 1, 1, b"w", 2, 1, len(shape), *shape)
    blob += struct.pack(">BII", 0, len(block), zlib.crc32(block)) + block
    meta = {"client_id": "a", "samples": "1", "steps": "1", "base_epoch": "0",
            "delta": "0", "enc": "qz"}
    return stage_body(meta, blob)


class TestUpdateStructure:
    """An update is checked against the model's structure before it is decoded."""

    def test_qz_update_is_refused_before_its_tensors_are_allocated(self):
        model = ParameterSet({"w": np.zeros(4)})
        payload = qz_update_declaring((2048, 2048))
        tracemalloc.start()
        try:
            with pytest.raises(ShapeMismatch):
                decode_update(payload, expect=model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the declared tensor is 32 MiB
        assert decode_update(qz_update_declaring((4,)), expect=model).params == model

    def test_staged_raw_update_of_another_size_is_refused_before_it_is_opened(self, tmp_path):
        store = FilesystemConnector(tmp_path)
        model = ParameterSet({"w": np.zeros(4, dtype=np.float32)})
        wrong = ModelUpdate("a", ParameterSet({"w": np.zeros(5, dtype=np.float32)}), False, 1, 1, 0)
        payload = encode_update(wrong, connector=store, inline_limit=0)
        store.get = None  # opening the body would raise TypeError
        with pytest.raises(ShapeMismatch):
            decode_update(payload, {"fs": store}, expect=model)

    def test_socket_server_refuses_it_once_and_the_round_goes_on(self):
        init = ParameterSet({"w": np.zeros(4)})
        agent = ServerAgent(init, SyncScheduler(["a"], 1), FedAvgAggregator(), target_epochs=1)
        with SocketServer(agent) as srv:
            handled = []
            handle = srv._handle
            srv._handle = lambda frame: handled.append(frame) or handle(frame)
            with Communicator(srv.host, srv.port, timeout=5.0, max_retries=3, backoff=0.01) as com:
                com.fetch_model("a")
                handled.clear()
                tracemalloc.start()
                try:
                    with pytest.raises(ShapeMismatch):
                        com.request(MessageType.UPDATE_SUBMIT, qz_update_declaring((2048, 2048)))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert len(handled) == 1 and peak < 8 << 20
                _, epoch, _, done = com.submit_update(ModelUpdate("a", init, False, 1, 1, 0))
        assert (epoch, done) == (1, True) and agent.update_count == 1


def make_setup(n_clients=2, rounds=3, scheduler_cls=SyncScheduler):
    spec = ModelSpec((5, 8, 3), "relu", "softmax_cross_entropy")
    init = init_params(spec, seed=42)
    data = make_blobs(classes=3, dim=5, per_class=80, seed=1)
    shards = partition(data, PartitionSpec("iid", n_clients, seed=2))
    ids = [f"c{i}" for i in range(n_clients)]
    scheduler = scheduler_cls(ids, default_steps=5)
    agent = ServerAgent(init, scheduler, FedAvgAggregator(), target_epochs=rounds)
    clients = {
        cid: ClientState(cid, shards[i], spec, TrainConfig(local_steps=5, seed=10 + i))
        for i, cid in enumerate(ids)
    }
    return agent, clients


def run_direct(agent, clients):
    """Drive the agent in-process: the reference result for the socket run."""
    assignments = {}
    for cid in sorted(clients):
        params, epoch, steps = agent.handle_model_request(cid, 0.0)
        assignments[cid] = (params, epoch, steps)
    t = 0.0
    while not agent.done:
        for cid in sorted(clients):
            if cid not in assignments:
                continue
            params, epoch, steps = assignments.pop(cid)
            u = local_train(clients[cid], params, steps=steps, base_epoch=epoch)
            t += 1.0
            for rid, rep in agent.process_update(u, t).items():
                assignments[rid] = (rep.params, rep.epoch, rep.next_steps)
    return agent.global_params


def client_loop(host, port, token, state):
    with Communicator(host, port, token=token) as com:
        params, epoch, steps, done = com.fetch_model(state.client_id)
        while not done:
            u = local_train(state, params, steps=steps, base_epoch=epoch)
            params, epoch, steps, done = com.submit_update(u)


def wait_until(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition not reached in time"
        time.sleep(0.005)


PER_STEP = 0.005  # seconds per step that the Compass updates below claim


def compass_agent(ids, target_epochs):
    # qmax * PER_STEP puts a group's expected arrival 0.5 s after it is
    # founded; the latitude is the default
    sched = CompassScheduler(ids, qmin=1, qmax=100)
    init = ParameterSet({"w": np.zeros(4, dtype=np.float32)})
    return ServerAgent(init, sched, FedAvgAggregator(), target_epochs=target_epochs)


def timed_update(cid, steps, epoch):
    params = ParameterSet({"w": np.full(4, epoch + 1.0, dtype=np.float32)})
    return ModelUpdate(cid, params, False, 10, steps, epoch, (0.0, steps * PER_STEP))


def share_group(agent, a, b):
    """a and b aggregate alone in their first groups, then share one; returns a's next round."""
    for cid, com in (("a", a), ("b", b)):
        com.fetch_model(cid)
    _, epoch, steps, _ = a.submit_update(timed_update("a", 100, 0))
    b.submit_update(timed_update("b", 100, 0))
    sched = agent.scheduler
    assert sched.assignment["a"] == sched.assignment["b"]
    return steps, epoch


class TestSocketRuns:
    def test_sync_socket_run_matches_direct_run(self):
        agent_a, clients_a = make_setup()
        want = run_direct(agent_a, clients_a)

        agent_b, clients_b = make_setup()
        with SocketServer(agent_b, token=b"tkn") as srv:
            threads = [
                threading.Thread(target=client_loop, args=(srv.host, srv.port, b"tkn", st))
                for st in clients_b.values()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        assert agent_b.global_params == want  # bit-identical across transports
        assert agent_b.epoch == agent_a.epoch

    def test_async_socket_run_completes(self):
        agent, clients = make_setup(n_clients=3, rounds=6, scheduler_cls=AsyncScheduler)
        with SocketServer(agent) as srv:
            threads = [
                threading.Thread(target=client_loop, args=(srv.host, srv.port, b"", st))
                for st in clients.values()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        assert agent.epoch >= 6
        assert agent.update_count >= 6

    def test_mismatched_update_is_refused_without_losing_the_round(self):
        # sync: a's update is parked when b's has the wrong shape; b's is
        # refused alone, so b's corrected update still closes the round
        init = ParameterSet({"w": np.zeros(4, dtype=np.float32)})
        wrong = ParameterSet({"w": np.zeros(5, dtype=np.float32)})
        agent = ServerAgent(init, SyncScheduler(["a", "b"], 1), FedAvgAggregator(), target_epochs=2)
        got = {}
        with SocketServer(agent) as srv:
            with Communicator(srv.host, srv.port, timeout=5.0, max_retries=0) as a, \
                    Communicator(srv.host, srv.port, timeout=5.0, max_retries=0) as b:
                a.fetch_model("a")
                b.fetch_model("b")
                parked = threading.Thread(
                    target=lambda: got.update(a=a.submit_update(ModelUpdate("a", init, False, 1, 1, 0)))
                )
                parked.start()
                wait_until(lambda: agent.update_count == 1)
                with pytest.raises(ShapeMismatch):
                    b.submit_update(ModelUpdate("b", wrong, False, 1, 1, 0))
                got["b"] = b.submit_update(ModelUpdate("b", init, False, 1, 1, 0))
                parked.join(timeout=5.0)
                assert not parked.is_alive()
        assert {cid: reply[1:] for cid, reply in got.items()} == {
            "a": (1, 1, False), "b": (1, 1, False)
        }
        assert agent.update_count == 2

    def test_bad_token_never_reaches_scheduler(self):
        agent, clients = make_setup()
        with SocketServer(agent, token=b"right") as srv:
            com = Communicator(srv.host, srv.port, token=b"wrong", max_retries=0)
            with pytest.raises(Unauthenticated):
                com.fetch_model("c0")
            with pytest.raises(Unauthenticated):
                com.submit_update(toy_update())
            com.close()
            assert agent.update_count == 0
            assert srv.unauthorized_count == 2

    def test_unknown_client_surfaces_typed_error(self):
        agent, clients = make_setup()
        with SocketServer(agent, token=b"t") as srv:
            with Communicator(srv.host, srv.port, token=b"t", max_retries=0) as com:
                with pytest.raises(UnknownClient):
                    com.fetch_model("not-registered")

    def test_oversized_declared_payload_rejected(self):
        agent, _ = make_setup()
        with SocketServer(agent, max_payload=1024) as srv:
            with socket.create_connection((srv.host, srv.port)) as raw:
                stream = raw.makefile("rwb")
                # hand-built header declaring a payload far over the cap
                stream.write(b"APFL\x02\x05\x00\x00\xff\xff\xff\xff")
                stream.flush()
                frame = read_frame(stream)
                assert frame.msg_type == MessageType.ERROR_REPLY
                assert b"OversizedPayload" in frame.payload

    def test_dataref_spill_over_socket(self, tmp_path):
        # tiny inline limit forces both directions through the shared store
        store = FilesystemConnector(tmp_path)
        agent, clients = make_setup(n_clients=1, rounds=1)
        with SocketServer(
            agent,
            connectors={"fs": store},
            send_connector=store,
            inline_limit=128,
        ) as srv:
            with Communicator(srv.host, srv.port, connectors={"fs": store}) as com:
                params, epoch, steps, done = com.fetch_model("c0")
                assert not done
                u = local_train(clients["c0"], params, steps=steps, base_epoch=epoch)
                p2, epoch2, steps2, done2 = com.submit_update(
                    u, connector=store, inline_limit=128
                )
                assert epoch2 == 1 and done2
                assert p2.same_structure(params)
        # model reply, update, final reply all spilled
        assert len(list(tmp_path.iterdir())) >= 3

    @pytest.mark.parametrize("staged", [False, True], ids=["inline", "staged"])
    def test_large_bodies_come_back_bit_exact(self, tmp_path, staged):
        # FedAvg over one full-model update returns it: every reply must equal
        # the submitted tensors bit for bit, whether the 160 KB bodies go out
        # inline in pieces or through a spool directory
        rng = np.random.default_rng(3)
        sets = [
            ParameterSet([("w", rng.standard_normal(40_000).astype(np.float32)),
                          ("b", rng.standard_normal(7))])
            for _ in range(2)
        ]
        spool = FilesystemConnector(tmp_path / "spool")
        limit = 1000 if staged else DEFAULT_INLINE_LIMIT
        agent = ServerAgent(sets[0], AsyncScheduler(["c0"], 1), FedAvgAggregator())
        with SocketServer(
            agent, connectors={"fs": spool}, send_connector=spool, inline_limit=limit
        ) as srv:
            with Communicator(srv.host, srv.port, connectors={"fs": spool}) as com:
                params, epoch, _, _ = com.fetch_model("c0")
                assert params == sets[0]
                for i in range(4):
                    sent = sets[(i + 1) % 2]
                    update = ModelUpdate("c0", sent, False, 1, 1, epoch)
                    params, epoch, _, _ = com.submit_update(
                        update, connector=spool, inline_limit=limit
                    )
                    assert params == sent
                    assert all(a.dtype.isnative for _, a in params.items())
        assert any((tmp_path / "spool").iterdir()) == staged

    def test_tampered_staged_reply_produces_no_set(self, tmp_path):
        spool = FilesystemConnector(tmp_path / "spool")
        p = ParameterSet([("w", np.arange(1000, dtype=np.float32))])
        payload = encode_model_reply(p, 3, 1, False, spool, inline_limit=100)
        (path,) = (tmp_path / "spool").iterdir()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x80
        path.write_bytes(data)
        with pytest.raises(ChecksumMismatch):
            decode_model_reply(payload, {"fs": spool})
        path.write_bytes(data[:-1])
        with pytest.raises(ChecksumMismatch):
            decode_model_reply(payload, {"fs": spool})

    def test_update_arriving_after_the_run_ended_is_not_aggregated(self):
        # async, one update ends the run; the other client's update is in flight
        spec = ModelSpec((5, 8, 3), "relu", "softmax_cross_entropy")
        agent = ServerAgent(
            init_params(spec, seed=42), AsyncScheduler(["c0", "c1"], 5), FedAvgAggregator(),
            target_updates=1,
        )
        _, clients = make_setup()
        with SocketServer(agent) as srv:
            with Communicator(srv.host, srv.port) as a, Communicator(srv.host, srv.port) as b:
                fetched = {cid: com.fetch_model(cid) for cid, com in (("c0", a), ("c1", b))}
                updates = {
                    cid: local_train(clients[cid], p, steps=s, base_epoch=e)
                    for cid, (p, e, s, _) in fetched.items()
                }
                _, epoch, _, done = a.submit_update(updates["c0"])
                assert (epoch, done) == (1, True)
                final = agent.global_params
                params, epoch, steps, done = b.submit_update(updates["c1"])
        assert agent.update_count == 1
        assert (epoch, steps, done) == (1, 0, True)
        assert params == final and agent.global_params is final

    def test_meta_key_that_is_not_utf8_gets_one_typed_error_reply(self):
        # the server answers with an error reply, and the client raises it at
        # once instead of resending the request over a new connection; a
        # Truncated error reply is the server's answer too, not a reply cut off
        agent, _ = make_setup()
        cases = [
            # flags 0, one meta entry: key b"\xff", value b"v"; empty body
            (MessageType.MODEL_REQUEST, b"\x00\x00\x01" + b"\x00\x01\xff" + b"\x00\x00\x00\x01v",
             ProtocolError, "not UTF-8"),
            # a raw update whose body ends 3 bytes short of its 64-byte tensor
            (MessageType.UPDATE_SUBMIT, bytes(encode_update(toy_update()))[:-3],
             Truncated, "needs 64 bytes, only 61 left"),
        ]
        with SocketServer(agent) as srv:
            handled = []
            handle = srv._handle
            srv._handle = lambda frame: handled.append(frame) or handle(frame)
            with Communicator(srv.host, srv.port, max_retries=3, backoff=0.01) as com:
                for msg_type, payload, error, message in cases:
                    handled.clear()
                    with pytest.raises(error, match=message):
                        com.request(msg_type, payload)
                    assert len(handled) == 1
                _, epoch, _, _ = com.fetch_model("c0")
                assert epoch == 0

    def test_reply_cut_off_mid_frame_is_retried(self):
        # a transport fault: the request goes again over a new connection, and
        # the whole reply to it is returned
        params = ParameterSet({"w": np.arange(16, dtype=np.float32)})
        reply = bytes(
            encode_frame(MessageType.MODEL_REPLY, encode_model_reply(params, 2, 5, False))
        )
        requests = []

        def peer(listener):
            for cut in (len(reply) // 2, len(reply)):
                conn, _ = listener.accept()
                with conn, conn.makefile("rwb") as stream:
                    requests.append(read_frame(stream).msg_type)
                    stream.write(reply[:cut])
                    stream.flush()
                    if cut == len(reply):
                        requests.append(read_frame(stream).msg_type)  # the client's SHUTDOWN

        with socket.create_server(("127.0.0.1", 0)) as listener:
            t = threading.Thread(target=peer, args=(listener,))
            t.start()
            with Communicator(*listener.getsockname()[:2], max_retries=1, backoff=0.01) as com:
                got = com.fetch_model("c0")
            t.join(timeout=10)
            assert not t.is_alive()
        assert got == (params, 2, 5, False)
        assert requests == [MessageType.MODEL_REQUEST] * 2 + [MessageType.SHUTDOWN]

    def test_unhandled_message_type_gets_an_error_reply(self):
        # the server answers no MODEL_REPLY: the request gets an error reply,
        # and the connection stays usable
        agent, _ = make_setup()
        with SocketServer(agent) as srv:
            with Communicator(srv.host, srv.port) as com:
                payload = stage_body({"client_id": "c0"}, b"")
                with pytest.raises(ProtocolError, match="unexpected message type MODEL_REPLY"):
                    com.request(MessageType.MODEL_REPLY, payload)
                _, epoch, _, _ = com.fetch_model("c0")
                assert epoch == 0

    def test_compass_member_gets_its_groups_reply_when_a_straggler_never_arrives(self):
        # the group's deadline is t_arrival * 1.2 on a clock that starts with
        # the server, well under a second away; b never submits again
        agent = compass_agent(["a", "b"], target_epochs=10)
        with SocketServer(agent) as srv:
            with Communicator(srv.host, srv.port, timeout=2.0, max_retries=0) as a, \
                    Communicator(srv.host, srv.port) as b:
                steps, epoch = share_group(agent, a, b)
                t0 = time.monotonic()
                _, epoch, steps, done = a.submit_update(timed_update("a", steps, epoch))
                waited = time.monotonic() - t0
        assert waited < 2.0
        assert (epoch, done) == (3, False) and steps > 0
        assert agent.update_count == 3

    def test_parked_member_gets_the_final_model_when_another_group_ends_the_run(self):
        agent = compass_agent(["a", "b", "c"], target_epochs=3)
        sched = agent.scheduler
        got = {}
        with SocketServer(agent) as srv:
            with Communicator(srv.host, srv.port, timeout=2.0, max_retries=0) as a, \
                    Communicator(srv.host, srv.port) as b, Communicator(srv.host, srv.port) as c:
                c.fetch_model("c")
                steps, epoch = share_group(agent, a, b)
                group = sched.groups[sched.assignment["a"]]
                deadline = group.t_arrival * (1.0 + sched.latitude)
                parked = threading.Thread(
                    target=lambda: got.update(a=a.submit_update(timed_update("a", steps, epoch)))
                )
                parked.start()
                wait_until(lambda: agent.update_count == 3)
                # c's first group aggregates alone and ends the run
                _, epoch_c, _, done_c = c.submit_update(timed_update("c", 100, 0))
                assert (epoch_c, done_c) == (3, True)
                parked.join(timeout=2.0)
                assert not parked.is_alive()
                params, epoch_a, steps_a, done_a = got["a"]
                assert (epoch_a, steps_a, done_a) == (3, 0, True)
                assert params == agent.global_params
                assert srv.now() < deadline  # a did not wait for its group's deadline
                wait_until(lambda: srv.now() > deadline + 0.05)
        assert sched.next_deadline() is not None  # a's group kept its deadline
        assert agent.epoch == 3

    def test_a_stopped_server_is_freed_without_the_cycle_collector(self):
        # a server in a reference cycle would keep its model until the cycle
        # collector ran: a benchmark that starts a server per session held a
        # dozen 16 MB models that way
        agent, _ = make_setup()
        gc.disable()
        try:
            with SocketServer(agent) as srv:
                with Communicator(srv.host, srv.port) as com:
                    com.fetch_model("c0")
            server = weakref.ref(srv)
            del srv
            assert server() is None
        finally:
            gc.enable()

    def test_a_stopped_server_leaves_none_of_its_threads_running(self):
        # a sync client is parked waiting for the other client when the
        # server stops: it gets an error reply, and every server thread ends
        before = set(threading.enumerate())
        agent, clients = make_setup()
        errors = []

        def submit(srv):
            with Communicator(srv.host, srv.port, max_retries=0) as com:
                params, epoch, steps, _ = com.fetch_model("c0")
                update = local_train(clients["c0"], params, steps=steps, base_epoch=epoch)
                try:
                    com.submit_update(update)
                except ProtocolError as e:
                    errors.append(str(e))

        with SocketServer(agent) as srv:
            client = threading.Thread(target=submit, args=(srv,))
            client.start()
            wait_until(lambda: agent.update_count == 1)
        client.join(timeout=5.0)
        assert not client.is_alive()
        assert errors == ["server shutting down"]
        assert set(threading.enumerate()) <= before


def golden_params():
    # two dtypes, a matrix, a vector and a scalar, in an order that interleaves the dtypes
    return ParameterSet([
        ("W0", (np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5) / 7),
        ("b0", np.linspace(-1.0, 2.0, 4)),
        ("W1", (np.arange(8, dtype=np.float32).reshape(4, 2) * 0.375) - 1),
        ("s", np.array(0.25)),
    ])


def golden_update(wall):
    return ModelUpdate("client-7", golden_params(), True, 123, 9, 4, wall)


# SHA-256 of the bytes the socket path sends and the checkpoint bytes, as the
# field-by-field encoders wrote them; every faster encoder must write the same
GOLDEN_SHA256 = {
    "update_wall": "ddf9d5c198eb90f2d07971296a950c59bad6e0c364a6b334c0cafd2d6e0c1348",
    "update_nowall": "64bab848935ee86db24a6aa2d0963750596811cd4f9bb242b6f7ad69fc368130",
    "update_qz": "e408ae2a9c681a0e6539889bc7501ccd8fa4fa6de9d71235453ae5fe8aea3769",
    "model_reply": "eceba259b13d7968b927b932a9f0a99b06f331507303d6623e20e129601bb78e",
    "frame_update_wall": "164667cdd040c4aa8ebbe2718799b25a5ef47421592870f932e3fc7fc9662b91",
    "frame_update_nowall": "ca008be34b7278fe23050c1de9987cb9f7a9b613b8143943bdff48bd59ab936a",
    "frame_update_qz": "f4eed160385515a7dd22b76b7f51009dc797d310e30f83020bf576cc448b6a0a",
    "frame_model_reply": "584813a017db004774060fc06bdcbc9916d694c4f876a77738825a56a5368c7b",
    "envelope_ref": "7649b99bee1b9f701543f55c2ceb73e6d22fa2b11866dd0ddefa7e26dead0d7a",
    "checkpoint": "c5dfa58c8df7d3ff86c45fc06140dcf1e7e5a823aaa510d1df5e9213b8c60f01",
}


def golden_payloads():
    return {
        "update_wall": encode_update(golden_update((1.5, 3.0625))),
        "update_nowall": encode_update(golden_update(None)),
        "update_qz": encode_update(golden_update((0.5, 2.0)), CodecConfig(small_tensor_threshold=0)),
        "model_reply": encode_model_reply(golden_params(), 5, 9, False),
    }


class TestGoldenBytes:
    def test_payloads_and_their_frames(self):
        for name, payload in golden_payloads().items():
            msg = MessageType.MODEL_REPLY if name == "model_reply" else MessageType.UPDATE_SUBMIT
            frame = encode_frame(msg, payload, token=b"tok")
            assert hashlib.sha256(bytes(payload)).hexdigest() == GOLDEN_SHA256[name], name
            assert hashlib.sha256(bytes(frame)).hexdigest() == GOLDEN_SHA256["frame_" + name], name

    def test_envelope_holding_a_data_reference(self):
        ref = DataRef("fs", "0123456789abcdef" * 2, 4096, hashlib.sha256(b"staged").digest())
        raw = encode_envelope(Envelope({"epoch": "5", "done": "0"}, ref=ref))
        assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256["envelope_ref"]
        assert decode_envelope(raw) == Envelope({"done": "0", "epoch": "5"}, ref=ref)

    def test_checkpoint(self, tmp_path):
        path = tmp_path / "golden.apfm"
        save_params(golden_params(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256["checkpoint"]

    def test_decoded_with_and_without_the_expected_structure(self):
        payloads = golden_payloads()
        for name in ("update_wall", "update_nowall"):
            for expect in (None, golden_params()):
                assert decode_update(bytes(payloads[name]), None, expect) == golden_update(
                    (1.5, 3.0625) if name == "update_wall" else None
                )
        for expect in (None, golden_params()):
            got = decode_model_reply(bytes(payloads["model_reply"]), None, expect)
            assert got == (golden_params(), 5, 9, False)


class TestMalformedUpdates:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("wall_meta", (0.0, math.nan)),
            ("wall_meta", (math.nan, 1.0)),
            ("wall_meta", (0.0, math.inf)),
            ("wall_meta", (-math.inf, 0.0)),
            ("wall_meta", (3.0, 1.0)),
            ("sample_count", -1),
            ("local_steps", -1),
            ("base_epoch", -1),
        ],
    )
    def test_refused_with_a_protocol_error(self, field, value):
        bad = dataclasses.replace(toy_update(), **{field: value})
        with pytest.raises(ProtocolError):
            decode_update(bytes(encode_update(bad)))

    @pytest.mark.parametrize(
        "wall, error",
        [((0.0, math.nan), ProtocolError), ((0.0, math.inf), ProtocolError),
         ((0.0, 1e308), NonFiniteValue)],
    )
    def test_one_compass_client_cannot_break_the_run_for_another(self, wall, error):
        # the refused update changes nothing: b's update, and then a's next
        # one, each aggregate as if it had never been sent
        agent = compass_agent(["a", "b"], target_epochs=10)
        with SocketServer(agent) as srv:
            with Communicator(srv.host, srv.port, max_retries=0) as a, \
                    Communicator(srv.host, srv.port, max_retries=0) as b:
                for cid, com in (("a", a), ("b", b)):
                    com.fetch_model(cid)
                bad = ModelUpdate("a", timed_update("a", 100, 0).params, False, 10, 100, 0, wall)
                with pytest.raises(error):
                    a.submit_update(bad)
                _, epoch_b, _, _ = b.submit_update(timed_update("b", 100, 0))
                _, epoch_a, _, _ = a.submit_update(timed_update("a", 100, 0))
        assert (epoch_b, epoch_a, agent.update_count) == (1, 2, 2)


def mutated(data, payload: bytes) -> bytes:
    """``payload`` cut short, with bytes flipped, or with bytes appended."""
    damage = data.draw(st.sampled_from(["cut", "flip", "append"]))
    if damage == "cut":
        return payload[: data.draw(st.integers(0, len(payload) - 1))]
    if damage == "append":
        return payload + data.draw(st.binary(min_size=1, max_size=16))
    buf = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 4))):
        buf[data.draw(st.integers(0, len(buf) - 1))] ^= data.draw(st.integers(1, 255))
    return bytes(buf)


def outcome(decode):
    try:
        return decode()
    except FedkitError as e:
        return type(e)


class TestMutatedPayloads:
    """Damaged envelopes and parameter bodies raise only typed errors, and
    reading a body by its expected layout never changes what comes out."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), wall=st.sampled_from([None, (1.5, 3.0625)]))
    def test_update(self, data, wall):
        buf = mutated(data, bytes(encode_update(golden_update(wall))))
        plain = outcome(lambda: decode_update(buf))
        laid_out = outcome(lambda: decode_update(buf, None, golden_params()))
        assert plain == laid_out

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_model_reply(self, data):
        buf = mutated(data, bytes(encode_model_reply(golden_params(), 5, 9, False)))
        plain = outcome(lambda: decode_model_reply(buf))
        laid_out = outcome(lambda: decode_model_reply(buf, None, golden_params()))
        assert plain == laid_out
