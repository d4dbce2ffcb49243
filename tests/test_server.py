"""The server's run record and the connections a long-lived server keeps."""
import gc
import hashlib
import itertools
import socket
import tracemalloc

import numpy as np
import pytest
import yaml

from fedkit import runner, sim
from fedkit.aggregators import FedAvgAggregator
from fedkit.config import build_scenario, load_config
from fedkit.params import MetricRecord, ModelUpdate, ParameterSet
from fedkit.runner import run_local, write_run_dir
from fedkit.schedulers import AsyncScheduler
from fedkit.server import ServerAgent
from fedkit.sim import run_simulation
from fedkit.transport import Communicator, SocketServer


def async_agent(params: ParameterSet) -> ServerAgent:
    return ServerAgent(params, AsyncScheduler(["a"], 1), FedAvgAggregator())


def update(params: ParameterSet, epoch: int) -> ModelUpdate:
    return ModelUpdate("a", params, False, 1, 1, epoch)


class TestRunRecord:
    def test_a_long_run_grows_by_at_most_24_bytes_per_update(self):
        # every update aggregates; the record keeps its time and epoch, 16 bytes
        params = ParameterSet({"w": np.arange(256, dtype=np.float32)})
        agent = async_agent(params)
        for _ in range(1000):  # the scheduler's and the allocator's first state
            agent.process_update(update(params, agent.epoch), 1.0)
        n = 20_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(n):
                agent.process_update(update(params, agent.epoch), 1.0)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert agent.aggregation_count == 1000 + n
        assert grown / n <= 24, f"{grown / n:.1f} B per update"

    def test_rows_are_epochs_then_evaluations_in_kind_order(self):
        params = ParameterSet({"w": np.zeros(4)})
        agent = async_agent(params)
        agent.process_update(update(params, 0), 0.5)
        agent.record_eval(0.5, {"loss": np.float64(2.0), "accuracy": 0.25})
        agent.process_update(update(params, 1), 1.5)
        agent.record_eval(1.5, {"loss": 1.0, "accuracy": 0.5})
        assert agent.metrics == [
            MetricRecord(0.5, "server", "epoch", 1.0),
            MetricRecord(1.5, "server", "epoch", 2.0),
            MetricRecord(0.5, "server", "val_accuracy", 0.25),
            MetricRecord(0.5, "server", "val_loss", 2.0),
            MetricRecord(1.5, "server", "val_accuracy", 0.5),
            MetricRecord(1.5, "server", "val_loss", 1.0),
        ]
        assert all(type(r.value) is float for r in agent.metrics)

    def test_each_read_is_a_new_list_that_changes_nothing(self):
        params = ParameterSet({"w": np.zeros(4)})
        agent = async_agent(params)
        agent.process_update(update(params, 0), 0.5)
        rows = agent.metrics
        rows.append(MetricRecord(9.0, "server", "epoch", 9.0))
        rows.clear()
        assert agent.metrics == [MetricRecord(0.5, "server", "epoch", 1.0)]
        assert agent.metrics is not agent.metrics
        with pytest.raises(AttributeError):
            agent.metrics = []


# -- metric files ----------------------------------------------------------------

# SHA-256 of the metric files that the two runs below write, computed at the
# commit before the run record became columns: the record's layout changed,
# the files did not
METRICS_SHA256 = {
    ("sim", "csv"): "ec5b63196e13eb643626a2e25fa67c5c6b1940c43603c171acabe13298ebbcb1",
    ("sim", "jsonl"): "a9ea030b1aa1438d79a91ae216e6a3cfae41017427d48f778c88e52c9ef82371",
    ("socket", "csv"): "fb80d6334eb01c3b1a6fe7a9162de17408c97a52cda1a313a3b197ad5229fe4e",
    ("socket", "jsonl"): "60798112394eb5453c6f4c598afefc838f6b19816836ca7c5c496b0e16780e0f",
}


def write_config(tmp_path, scheduler: str, aggregator: str):
    doc = {
        "server_configs": {
            "aggregator": aggregator,
            "scheduler": scheduler,
            "num_global_epochs": 3,
            "model_configs": {
                "layer_dims": [5, 8, 3],
                "activation": "relu",
                "loss": "softmax_cross_entropy",
                "init_seed": 7,
            },
            "evaluation": {
                "dataset_name": "blobs",
                "dataset_kwargs": {"classes": 3, "dim": 5, "per_class": 20, "seed": 9},
            },
        },
        "client_configs": {
            "train_configs": {"lr": 0.05, "batch_size": 16, "local_steps": 8},
            "data_configs": {
                "dataset_name": "blobs",
                "dataset_kwargs": {
                    "classes": 3, "dim": 5, "per_class": 40, "seed": 1,
                    "partition": {"scheme": "iid", "seed": 3},
                },
            },
        },
        "clients": [
            {"client_id": "alpha", "mean_batch_time": 0.3},
            {"client_id": "beta", "mean_batch_time": 0.7},
        ],
    }
    path = tmp_path / f"{scheduler}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_config(path)


@pytest.fixture
def counted_scores(monkeypatch):
    """Evaluation scores that count the evaluations, so the pinned bytes do not hang on BLAS."""
    calls = itertools.count(1)

    def scores(spec, params, ds):
        k = next(calls)
        return {"loss": 1.0 / (k + 2), "accuracy": k / 8}

    monkeypatch.setattr(sim, "dataset_metrics", scores)
    monkeypatch.setattr(runner, "dataset_metrics", scores)


def digest(run_dir, fmt: str) -> str:
    return hashlib.sha256((run_dir / f"metrics.{fmt}").read_bytes()).hexdigest()


def test_simulated_metric_files_are_pinned(tmp_path, counted_scores):
    # an async run: an epoch row per update, two evaluation rows per aggregation
    cfg = write_config(tmp_path, "AsyncScheduler", "FedAsyncAggregator")
    res = run_simulation(build_scenario(cfg))
    for fmt in ("csv", "jsonl"):
        write_run_dir(tmp_path / fmt, cfg, res.metrics, res.final_params, fmt)
    got = {fmt: digest(tmp_path / fmt, fmt) for fmt in ("csv", "jsonl")}
    assert got == {fmt: METRICS_SHA256["sim", fmt] for fmt in got}


def test_socket_metric_files_are_pinned(tmp_path, counted_scores, monkeypatch):
    # the agent reads the clock under the server's lock, so a clock that counts
    # the updates processed stamps every row the same in every run
    monkeypatch.setattr(SocketServer, "now", lambda self: 0.25 * self.agent.update_count)
    cfg = write_config(tmp_path, "SyncScheduler", "FedAvgAggregator")
    got = {}
    for fmt in ("csv", "jsonl"):
        out = run_local(cfg, run_dir=tmp_path / fmt, metrics_format=fmt)
        got[fmt] = digest(out.run_dir, fmt)
    assert got == {fmt: METRICS_SHA256["socket", fmt] for fmt in got}


# -- connections -------------------------------------------------------------------


def test_both_ends_set_tcp_nodelay():
    params = ParameterSet({"w": np.zeros(4, dtype=np.float32)})
    accepted = []
    with SocketServer(async_agent(params)) as srv:
        serve = srv._serve_connection

        def spy(conn):
            accepted.append(conn)
            serve(conn)

        srv._serve_connection = spy
        with Communicator(srv.host, srv.port) as com:
            com.fetch_model("a")
            assert com._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_finished_connection_threads_are_let_go(no_thread_left):
    params = ParameterSet({"w": np.zeros(4, dtype=np.float32)})
    with SocketServer(async_agent(params)) as srv:
        for _ in range(200):
            with Communicator(srv.host, srv.port) as com:
                com.fetch_model("a")
        assert len(srv._conn_threads) <= 2
