import socket
import threading

import numpy as np
import pytest

from fedkit.aggregators import FedAvgAggregator
from fedkit.client import ClientState, TrainConfig, local_train
from fedkit.compression import CodecConfig
from fedkit.errors import OversizedPayload, ProtocolError, Unauthenticated, UnknownClient
from fedkit.models import ModelSpec, PartitionSpec, init_params, make_blobs, partition
from fedkit.params import ModelUpdate, ParameterSet, serialize_params
from fedkit.schedulers import AsyncScheduler, SyncScheduler
from fedkit.server import ServerAgent
from fedkit.transport import (
    Communicator,
    SocketServer,
    decode_update,
    encode_update,
)
from fedkit.wire import MemoryConnector, MessageType, encode_frame, read_frame, stage_body


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
        out = decode_update(encode_update(u))
        assert out.client_id == u.client_id
        assert out.params == u.params
        assert out.sample_count == 100
        assert out.local_steps == 7
        assert out.base_epoch == 2
        assert not out.is_delta
        assert out.wall_meta == (1.5, 3.25)

    def test_wall_meta_optional(self):
        u = toy_update(wall=None)
        assert decode_update(encode_update(u)).wall_meta is None

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

    def test_dataref_spill_roundtrip(self):
        c = MemoryConnector("mem")
        u = toy_update(n=4096)
        payload = encode_update(u, connector=c, inline_limit=1024)
        assert len(payload) < 1024  # body went out of band
        out = decode_update(payload, {"mem": c})
        assert out.params == u.params


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
        assert agent.dispatch_count >= 6

    def test_bad_token_never_reaches_scheduler(self):
        agent, clients = make_setup()
        with SocketServer(agent, token=b"right") as srv:
            com = Communicator(srv.host, srv.port, token=b"wrong", max_retries=0)
            with pytest.raises(Unauthenticated):
                com.fetch_model("c0")
            with pytest.raises(Unauthenticated):
                com.submit_update(toy_update())
            com.close()
            assert agent.dispatch_count == 0
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
                stream.write(b"APFL\x01\x05\x00\x00\xff\xff\xff\xff")
                stream.flush()
                frame = read_frame(stream)
                assert frame.msg_type == MessageType.ERROR_REPLY
                assert b"OversizedPayload" in frame.payload

    def test_dataref_spill_over_socket(self):
        # tiny inline limit forces both directions through the shared store
        store = MemoryConnector("mem")
        agent, clients = make_setup(n_clients=1, rounds=1)
        with SocketServer(
            agent,
            connectors={"mem": store},
            send_connector=store,
            inline_limit=128,
        ) as srv:
            with Communicator(srv.host, srv.port, connectors={"mem": store}) as com:
                params, epoch, steps, done = com.fetch_model("c0")
                assert not done
                u = local_train(clients["c0"], params, steps=steps, base_epoch=epoch)
                p2, epoch2, steps2, done2 = com.submit_update(
                    u, connector=store, inline_limit=128
                )
                assert epoch2 == 1 and done2
                assert p2.same_structure(params)
        assert len(store) >= 3  # model reply, update, final reply all spilled

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
        assert agent.update_count == agent.dispatch_count == 1
        assert (epoch, steps, done) == (1, 0, True)
        assert params == final and agent.global_params is final

    def test_config_request_roundtrip(self):
        agent, _ = make_setup()
        provider = lambda cid: {"client_id": cid, "lr": 0.01}
        with SocketServer(agent, config_provider=provider) as srv:
            with Communicator(srv.host, srv.port) as com:
                cfg = com.fetch_config("c7")
                assert cfg == {"client_id": "c7", "lr": 0.01}
