"""Benchmark helpers: synthetic models and the utilization report."""
import csv

import numpy as np
import pytest
import yaml

from fedkit.bench import report_utilization, synthetic_params
from fedkit.errors import InvalidBounds, ParseError


class TestSyntheticParams:
    def test_exact_count_and_dtype(self):
        p = synthetic_params(3_000_000)
        assert sum(a.size for _, a in p) == 3_000_000
        assert all(a.dtype == np.float32 for _, a in p)

    def test_deterministic(self):
        a = synthetic_params(1000, seed=5)
        b = synthetic_params(1000, seed=5)
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))

    def test_rejects_empty(self):
        with pytest.raises(InvalidBounds):
            synthetic_params(0)


UTIL_DOC = {
    "server_configs": {
        "aggregator": "FedAvgAggregator",
        "scheduler": "SyncScheduler",
        "num_global_epochs": 3,
        "model_configs": {
            "layer_dims": [5, 8, 3],
            "activation": "relu",
            "loss": "softmax_cross_entropy",
        },
    },
    "client_configs": {
        "train_configs": {"lr": 0.05, "batch_size": 16, "local_steps": 100},
        "data_configs": {
            "dataset_name": "blobs",
            "dataset_kwargs": {
                "classes": 3,
                "dim": 5,
                "per_class": 40,
                "seed": 1,
                "partition": {"scheme": "iid", "seed": 3},
            },
        },
    },
    "clients": [
        {"client_id": "fast", "mean_batch_time": 1.0},
        {"client_id": "slow", "mean_batch_time": 2.0},
    ],
}


class TestReportUtilization:
    def test_two_speed_sync_reference_numbers(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(UTIL_DOC))
        report = report_utilization(cfg, out_dir=tmp_path)
        assert report.per_client["fast"].utilization == 0.5
        assert report.per_client["slow"].utilization == 1.0
        with (tmp_path / "utilization.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["client_id"]: float(r["utilization"]) for r in rows} == {
            "fast": 0.5,
            "slow": 1.0,
        }
        with (tmp_path / "gantt.csv").open(newline="") as fh:
            spans = list(csv.DictReader(fh))
        assert {s["kind"] for s in spans} == {"compute", "idle"}

    def test_reads_run_directory(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "config.yaml").write_text(yaml.safe_dump(UTIL_DOC))
        report = report_utilization(run_dir)
        assert report.per_client["fast"].utilization == 0.5
        assert (run_dir / "utilization.csv").exists()
        assert (run_dir / "gantt.csv").exists()

    def test_missing_source(self, tmp_path):
        with pytest.raises(ParseError, match="no config"):
            report_utilization(tmp_path / "nope")
