"""CLI surface: subcommands, exit codes, file outputs."""
import re
from pathlib import Path

import yaml

import pytest

from fedkit.cli import main
from fedkit.config import build_scenario, load_config
from fedkit.metrics import read_metrics

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "server_configs": {
            "aggregator": "FedAvgAggregator",
            "scheduler": "SyncScheduler",
            "num_global_epochs": 2,
            "model_configs": {
                "layer_dims": [5, 8, 3],
                "activation": "relu",
                "loss": "softmax_cross_entropy",
                "init_seed": 3,
            },
            "evaluation": {
                "dataset_name": "blobs",
                "dataset_kwargs": {"classes": 3, "dim": 5, "per_class": 20, "seed": 1},
            },
        },
        "client_configs": {
            "train_configs": {"lr": 0.05, "batch_size": 16, "local_steps": 6},
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
            {"client_id": "alpha", "mean_batch_time": 1.0},
            {"client_id": "beta", "mean_batch_time": 2.0},
        ],
    }
    path = tmp_path / "server.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_validate_config_ok(config_path, capsys):
    assert main(["validate-config", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "alpha" in out and "beta" in out


def test_validate_config_bad_strategy_exits_2(config_path, tmp_path, capsys):
    doc = yaml.safe_load(config_path.read_text())
    doc["server_configs"]["aggregator"] = "FedMagic"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert "FedMagic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "aggregator, key, value, named",
    [
        ("FedAvgAggregator", "aggregator_kwargs", {"server_lrr": 0.1}, "server_lrr"),
        ("FedAvgAggregator", "scheduler_kwargs", {"qmin": "x"}, "qmin"),
        ("FedAvgAggregator", "scheduler_kwargs", {"qmin": 5, "qmax": 3}, "qmin"),
        ("FedAvgAggregator", "scheduler_kwargs", {"qmin": 2.5}, "scheduler_kwargs.qmin"),
        ("FedAvgAggregator", "scheduler_kwargs", {"latitude": True}, "scheduler_kwargs.latitude"),
        ("FedAvgAggregator", "model_configs", {"layer_dims": ["a", 3], "loss": "mse"}, "layer_dims"),
        # each rule takes only the settings it reads
        ("FedAvgMAggregator", "aggregator_kwargs", {"tau": 5.0}, "aggregator_kwargs.tau"),
        ("FedAdagradAggregator", "aggregator_kwargs", {"beta1": 0.1}, "aggregator_kwargs.beta1"),
        ("FedAdamAggregator", "aggregator_kwargs", {"beta": 0.3}, "aggregator_kwargs.beta"),
        ("FedYogiAggregator", "aggregator_kwargs", {"beta": 0.3}, "aggregator_kwargs.beta"),
        ("FedBuffAggregator", "aggregator_kwargs", {"buffer_size": 0}, "server_configs.aggregator_kwargs"),
    ],
)
def test_validate_config_checks_kwargs_and_layer_dims(
    config_path, tmp_path, capsys, aggregator, key, value, named
):
    doc = yaml.safe_load(config_path.read_text())
    doc["server_configs"]["scheduler"] = "CompassScheduler"
    doc["server_configs"]["aggregator"] = aggregator
    doc["server_configs"][key] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert named in capsys.readouterr().err


def write_variant(config_path, tmp_path, edit):
    doc = yaml.safe_load(config_path.read_text())
    edit(doc)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    return bad


@pytest.mark.parametrize("key, value", [("activation", "tanh"), ("loss", "hinge")])
def test_validate_config_names_an_unknown_activation_or_loss(config_path, tmp_path, capsys, key, value):
    bad = write_variant(
        config_path, tmp_path, lambda doc: doc["server_configs"]["model_configs"].update({key: value})
    )
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert f"model_configs.{key}" in capsys.readouterr().err


def test_validate_config_names_a_non_numeric_aggregator_kwarg(config_path, tmp_path, capsys):
    def edit(doc):
        doc["server_configs"]["aggregator"] = "FedAdamAggregator"
        doc["server_configs"]["aggregator_kwargs"] = {"server_lr": "x"}

    bad = write_variant(config_path, tmp_path, edit)
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert "aggregator_kwargs.server_lr" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("error_bound", 2.0), ("small_tensor_threshold", -1)])
def test_validate_config_names_an_out_of_range_compressor_setting(config_path, tmp_path, capsys, key, value):
    def edit(doc):
        doc["client_configs"]["comm_configs"] = {
            "compressor_configs": {"enable_compression": True, key: value}
        }

    bad = write_variant(config_path, tmp_path, edit)
    assert main(["validate-config", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"clients[0].comm_configs.compressor_configs.{key}: must be" in err
    assert "eb_rel" not in err


def test_validate_config_names_a_non_numeric_batch_time(config_path, tmp_path, capsys):
    bad = write_variant(
        config_path, tmp_path, lambda doc: doc.update(sim={"mean_batch_times": {"alpha": "x"}})
    )
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert "mean_batch_times.alpha" in capsys.readouterr().err


def test_readme_example_config_validates_and_builds(tmp_path, capsys):
    text = README.read_text()
    block = re.search(r"A complete working example:\n\n```yaml\n(.*?)```", text, re.S)
    assert block is not None
    path = tmp_path / "example.yaml"
    path.write_text(block.group(1))
    assert main(["validate-config", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out
    scenario = build_scenario(load_config(path))
    assert [c.client_id for c in scenario.clients] == ["alpha", "beta"]


@pytest.mark.parametrize("command", ["bench-comm", "bench-compress"])
def test_removed_subcommands_exit_2(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_validate_config_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate-config", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_writes_run_dir(config_path, tmp_path, capsys):
    run_dir = tmp_path / "sim-run"
    rc = main(
        ["simulate", "--config", str(config_path), "--run-dir", str(run_dir)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean_utilization" in out
    for name in ("config.yaml", "metrics.csv", "model.bin", "utilization.csv", "gantt.csv"):
        assert (run_dir / name).exists(), name


@pytest.mark.parametrize("command", [["simulate"], ["run", "--role", "local"]])
def test_second_run_into_a_run_dir_replaces_its_records(config_path, tmp_path, command):
    run_dir = tmp_path / "reused"
    argv = [*command, "--config", str(config_path), "--run-dir", str(run_dir)]
    assert main(argv) == 0
    first = (run_dir / "metrics.csv").read_text()
    assert main(argv) == 0
    metrics = read_metrics(run_dir / "metrics.csv")
    assert [m.value for m in metrics if m.kind == "epoch"] == [1.0, 2.0]
    assert len((run_dir / "metrics.csv").read_text().splitlines()) == len(first.splitlines())
    # a run in the other format leaves only its own metric file behind
    assert main([*argv, "--metrics-format", "jsonl"]) == 0
    assert not (run_dir / "metrics.csv").exists()
    jsonl = read_metrics(run_dir / "metrics.jsonl")
    assert [m.value for m in jsonl if m.kind == "epoch"] == [1.0, 2.0]


def test_run_local_role(config_path, tmp_path, capsys):
    run_dir = tmp_path / "local-run"
    rc = main(
        [
            "run",
            "--config",
            str(config_path),
            "--role",
            "local",
            "--run-dir",
            str(run_dir),
        ]
    )
    assert rc == 0
    assert "epoch=2" in capsys.readouterr().out
    assert (run_dir / "model.bin").exists()


def test_run_client_requires_client_id(config_path, capsys):
    rc = main(["run", "--config", str(config_path), "--role", "client"])
    assert rc == 2
    assert "--client-id" in capsys.readouterr().err


def test_run_client_unknown_client_id_exits_2(config_path, capsys):
    rc = main(
        [
            "run",
            "--config",
            str(config_path),
            "--role",
            "client",
            "--client-id",
            "gamma",
            "--port",
            "1",  # reserved port nothing listens on
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "'gamma'" in err and "'alpha'" in err and "'beta'" in err


def test_run_client_connection_refused_exits_1(config_path, capsys):
    rc = main(
        [
            "run",
            "--config",
            str(config_path),
            "--role",
            "client",
            "--client-id",
            "alpha",
            "--port",
            "1",  # reserved port nothing listens on
        ]
    )
    assert rc == 1
    assert "ConnectionRefused" in capsys.readouterr().err


def test_report_utilization_needs_exactly_one_source(config_path, capsys):
    assert main(["report-utilization"]) == 2
    assert (
        main(
            [
                "report-utilization",
                "--config",
                str(config_path),
                "--run-dir",
                str(config_path.parent),
            ]
        )
        == 2
    )


def test_report_utilization_from_config(config_path, tmp_path, capsys):
    rc = main(
        [
            "report-utilization",
            "--config",
            str(config_path),
            "--out-dir",
            str(tmp_path / "rpt"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "rpt" / "utilization.csv").exists()
    assert "utilization=" in capsys.readouterr().out
