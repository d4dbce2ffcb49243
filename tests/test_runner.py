"""End-to-end runs over real sockets driven from config files."""
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import yaml

from fedkit import compression
from fedkit.cli import main
from fedkit.config import build_scenario, load_config
from fedkit.errors import Unauthenticated
from fedkit.metrics import read_metrics
from fedkit.params import ModelUpdate, load_params, serialize_params
from fedkit.runner import run_client, run_local, run_server, serve
from fedkit.server import make_server_agent
from fedkit.sim import run_simulation


def write_config(tmp_path, *, scheduler="SyncScheduler", epochs=3, token=None, name="server.yaml",
                 dims=(5, 8, 3), local_steps=8, codec=None):
    classes, dim = dims[-1], dims[0]
    doc = {
        "server_configs": {
            "aggregator": "FedAvgAggregator",
            "scheduler": scheduler,
            "num_global_epochs": epochs,
            "model_configs": {
                "layer_dims": list(dims),
                "activation": "relu",
                "loss": "softmax_cross_entropy",
                "init_seed": 7,
            },
            "evaluation": {
                "dataset_name": "blobs",
                "dataset_kwargs": {"classes": classes, "dim": dim, "per_class": 20, "seed": 9},
            },
        },
        "client_configs": {
            "train_configs": {"lr": 0.05, "batch_size": 16, "local_steps": local_steps},
            "data_configs": {
                "dataset_name": "blobs",
                "dataset_kwargs": {
                    "classes": classes,
                    "dim": dim,
                    "per_class": 40,
                    "seed": 1,
                    "partition": {"scheme": "iid", "seed": 3},
                },
            },
        },
        "clients": [{"client_id": "alpha"}, {"client_id": "beta"}],
    }
    if token is not None:
        doc["server_configs"]["comm"] = {"auth_token": token}
    if codec is not None:
        section = {"enable_compression": True, **codec}
        doc["client_configs"]["comm_configs"] = {"compressor_configs": section}
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_local_socket_run_matches_simulation(tmp_path):
    cfg = load_config(write_config(tmp_path))
    sim = run_simulation(build_scenario(cfg))
    live = run_local(load_config(write_config(tmp_path)))
    assert serialize_params(live.final_params) == serialize_params(sim.final_params)
    assert live.epoch == sim.epoch == 3


def test_socket_run_matches_simulation_on_a_model_blas_splits(tmp_path):
    # OpenBLAS splits the (16, 784) @ (784, 1024) products of this model across
    # its threads, and the bits depend on the thread count: socket and
    # simulator agree only if both train under the same thread cap
    path = write_config(tmp_path, dims=(784, 1024, 10), epochs=2, local_steps=1)
    sim = run_simulation(build_scenario(load_config(path)))
    live = run_local(load_config(path))
    assert serialize_params(live.final_params) == serialize_params(sim.final_params)
    assert live.epoch == sim.epoch == 2


def test_socket_run_with_a_codec_matches_simulation(tmp_path):
    # every upload goes through qz and deflate on both paths: W0's qz block is
    # past the size that is judged by a sample, and is stored, while the
    # biases, under the qz threshold, take the lossless path
    path = write_config(tmp_path, dims=(784, 700, 10), epochs=2, local_steps=1,
                        codec={"lossy_compressor": "qz", "lossless_compressor": "deflate"})
    cfg = load_config(path)
    codec = cfg.clients[0].codec
    assert codec is not None and (codec.lossy, codec.lossless) == ("qz", "deflate")
    sim = run_simulation(build_scenario(cfg))
    live = run_local(load_config(path))
    assert serialize_params(live.final_params) == serialize_params(sim.final_params)
    assert live.epoch == sim.epoch == 2
    plain = write_config(tmp_path, dims=(784, 700, 10), epochs=2, local_steps=1, name="plain.yaml")
    assert run_simulation(build_scenario(load_config(plain))).final_params != sim.final_params
    block = compression._qz_encode(sim.final_params["W0"], codec.eb_rel)
    assert len(block) > compression._DEFLATE_WHOLE
    assert compression._deflate_if_smaller(block) is None
    assert sim.final_params["b0"].size < codec.small_tensor_threshold


def test_run_dir_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = run_local(cfg, run_dir=tmp_path / "run")
    assert out.run_dir is not None
    snapshot = yaml.safe_load((out.run_dir / "config.yaml").read_text())
    assert snapshot["server_configs"]["aggregator"] == "FedAvgAggregator"
    metrics = read_metrics(out.run_dir / "metrics.csv")
    assert [m.value for m in metrics if m.kind == "epoch"] == [1.0, 2.0, 3.0]
    assert any(m.kind == "val_loss" for m in metrics)
    stored = load_params(out.run_dir / "model.bin")
    assert serialize_params(stored) == serialize_params(out.final_params)


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_until_listening(port: int, server) -> None:
    """Return once ``port`` accepts a connection; fail if ``server`` (a future) ends first."""
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return
        except ConnectionRefusedError:
            if server.done():
                raise AssertionError(f"the server ended before it listened: {server.exception()!r}")
            time.sleep(0.01)


@pytest.mark.parametrize("cli_role", ["server", "client"])
def test_distributed_roles_reproduce_the_local_run_and_the_simulation(tmp_path, capsys, cli_role):
    # one process per role as the CLI runs them, here one thread each: the
    # role named by cli_role goes through main, the others call the runner
    path = write_config(tmp_path)
    cfg = load_config(path)
    run_dir, port = tmp_path / "dist", free_port()
    argv = ["run", "--config", str(path), "--port", str(port)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        if cli_role == "server":
            server = pool.submit(main, [*argv, "--role", "server", "--run-dir", str(run_dir),
                                        "--timeout", "60"])
        else:
            server = pool.submit(run_server, cfg, run_dir, port=port, timeout=60)
        wait_until_listening(port, server)
        beta = pool.submit(run_client, cfg, "beta", port=port)
        if cli_role == "client":
            assert main([*argv, "--role", "client", "--client-id", "alpha"]) == 0
            assert "client alpha finished after 3 rounds" in capsys.readouterr().out
        else:
            assert run_client(cfg, "alpha", port=port) == 3
        assert beta.result(timeout=60) == 3
        if cli_role == "server":
            assert server.result(timeout=60) == 0
            assert "run complete: epoch=3 updates=6" in capsys.readouterr().out
        else:
            assert server.result(timeout=60).epoch == 3
    assert sorted(p.name for p in run_dir.iterdir()) == ["config.yaml", "metrics.csv", "model.bin"]
    served = serialize_params(load_params(run_dir / "model.bin"))
    assert served == serialize_params(run_local(cfg).final_params)
    assert served == serialize_params(run_simulation(build_scenario(cfg)).final_params)


def test_async_local_run_completes(tmp_path):
    cfg = load_config(write_config(tmp_path, scheduler="AsyncScheduler", epochs=2))
    out = run_local(cfg)
    # 2 clients x 2 epochs; an update in flight when the run ends is not counted
    assert out.updates_processed == 4
    assert out.epoch == 4


def test_wrong_token_is_rejected(tmp_path):
    good = load_config(write_config(tmp_path, token="right"))
    bad = load_config(write_config(tmp_path, token="wrong", name="bad.yaml"))
    with serve(good, port=0) as srv:
        with pytest.raises(Unauthenticated):
            run_client(bad, "alpha", host=srv.host, port=srv.port)
        assert srv.agent.update_count == 0


def test_absent_server_raises_connection_refused(tmp_path):
    cfg = load_config(write_config(tmp_path))
    with serve(cfg, port=0) as srv:
        dead_port = srv.port
    # the listener is closed now; connecting must fail loudly and precisely
    with pytest.raises(ConnectionRefusedError):
        run_client(cfg, "alpha", host="127.0.0.1", port=dead_port)


def test_two_clients_share_rounds(tmp_path):
    cfg = load_config(write_config(tmp_path))
    counts = {}
    with serve(cfg, port=0) as srv:
        threads = [
            threading.Thread(
                target=lambda c: counts.__setitem__(
                    c, run_client(cfg, c, host=srv.host, port=srv.port)
                ),
                args=(p.client_id,),
            )
            for p in cfg.clients
        ]
        for t in threads:
            t.start()
        assert srv.wait_done(timeout=60.0)
        for t in threads:
            t.join(timeout=5.0)
    assert counts == {"alpha": 3, "beta": 3}


def test_partial_buffer_is_flushed_when_an_update_counted_run_ends(tmp_path):
    # one client, 4 updates into a buffer of 3: one full aggregation, then the
    # end of the run folds the leftover update in as a second
    path = write_config(tmp_path, scheduler="AsyncScheduler", epochs=4)
    doc = yaml.safe_load(path.read_text())
    doc["server_configs"]["aggregator"] = "FedBuffAggregator"
    doc["server_configs"]["aggregator_kwargs"] = {"buffer_size": 3}
    doc["clients"] = [{"client_id": "alpha"}]
    path.write_text(yaml.safe_dump(doc))
    cfg = load_config(path)
    sim = run_simulation(build_scenario(cfg))
    live = run_local(cfg)
    assert sim.updates_processed == live.updates_processed == 4
    assert sim.epoch == live.epoch == 2
    assert live.final_params == sim.final_params


@pytest.mark.parametrize("scheduler, flushed", [("SyncScheduler", False), ("AsyncScheduler", True)])
def test_finalize_flushes_only_a_run_counted_in_updates(tmp_path, scheduler, flushed):
    path = write_config(tmp_path, scheduler=scheduler)
    doc = yaml.safe_load(path.read_text())
    doc["server_configs"]["aggregator"] = "FedBuffAggregator"
    doc["server_configs"]["aggregator_kwargs"] = {"buffer_size": 3}
    path.write_text(yaml.safe_dump(doc))
    agent = make_server_agent(load_config(path))
    # two updates reach the buffer of 3 under either scheduler
    for cid in ("alpha", "beta"):
        params, epoch, steps = agent.handle_model_request(cid, 0.0)
    for cid in ("alpha", "beta"):
        agent.process_update(ModelUpdate(cid, params, False, 1, steps, epoch), 1.0)
    agent.finalize(2.0)
    assert agent.aggregation_count == agent.epoch == int(flushed)
