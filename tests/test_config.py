"""Config loading: schema validation, merge semantics, scenario assembly."""
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedkit.config import build_scenario, client_dataset, dump_resolved, load_config
from fedkit.errors import (
    ConfigError,
    MissingRequired,
    ParseError,
    UnknownKey,
    UnknownStrategyName,
)
from fedkit.models import build_dataset

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"

SERVER_DOC = {
    "server_configs": {
        "aggregator": "FedAvgAggregator",
        "scheduler": "SyncScheduler",
        "num_global_epochs": 10,
        "model_configs": {
            "layer_dims": [5, 8, 3],
            "activation": "relu",
            "loss": "softmax_cross_entropy",
            "init_seed": 7,
        },
        "evaluation": {
            "dataset_name": "blobs",
            "dataset_kwargs": {"classes": 3, "dim": 5, "per_class": 20, "seed": 1},
        },
    },
    "client_configs": {
        "train_configs": {
            "optimizer": "sgd",
            "lr": 0.05,
            "batch_size": 16,
            "local_steps": 8,
        },
        "data_configs": {
            "dataset_name": "blobs",
            "dataset_kwargs": {
                "classes": 3,
                "dim": 5,
                "per_class": 60,
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


def write_server(tmp_path, doc=None, **tweaks):
    doc = yaml.safe_load(yaml.safe_dump(doc if doc is not None else SERVER_DOC))
    for dotted, value in tweaks.items():
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if value is ...:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    path = tmp_path / "server.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestLoading:
    def test_basic_fields(self, tmp_path):
        cfg = load_config(write_server(tmp_path))
        assert cfg.aggregator == "FedAvgAggregator"
        assert cfg.scheduler == "SyncScheduler"
        assert cfg.num_global_epochs == 10
        assert cfg.model_spec.layer_dims == (5, 8, 3)
        assert cfg.init_seed == 7
        assert [p.client_id for p in cfg.clients] == ["alpha", "beta"]

    def test_shared_train_config_fans_out(self, tmp_path):
        cfg = load_config(write_server(tmp_path))
        for plan in cfg.clients:
            assert plan.train.lr == 0.05
            assert plan.train.local_steps == 8

    def test_client_override_wins_fieldwise(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
        doc["clients"][1]["train_configs"] = {"lr": 0.01}
        cfg = load_config(write_server(tmp_path, doc))
        alpha, beta = cfg.clients
        assert beta.train.lr == 0.01
        # untouched fields still come from the shared section
        assert beta.train.local_steps == 8
        assert alpha.train.lr == 0.05

    def test_clients_from_external_files(self, tmp_path):
        server = write_server(tmp_path, SERVER_DOC, clients=...)
        paths = []
        for cid in ("gamma", "delta"):
            p = tmp_path / f"{cid}.yaml"
            p.write_text(yaml.safe_dump({"client_id": cid}))
            paths.append(p)
        cfg = load_config(server, paths)
        assert [p.client_id for p in cfg.clients] == ["delta", "gamma"]

    def test_no_clients_anywhere(self, tmp_path):
        with pytest.raises(MissingRequired):
            load_config(write_server(tmp_path, SERVER_DOC, clients=...))

    def test_compression_section_builds_codec(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
        doc["client_configs"]["comm_configs"] = {
            "compressor_configs": {
                "enable_compression": True,
                "lossy_compressor": "SZ2Compressor",
                "lossless_compressor": "ZstdCompressor",
                "error_bound": 0.003,
            }
        }
        cfg = load_config(write_server(tmp_path, doc))
        codec = cfg.clients[0].codec
        assert codec is not None
        assert codec.eb_rel == 0.003
        # aliases resolve to the canonical built-in codecs
        assert codec.lossy == "qz"
        assert codec.lossless == "deflate"

    def test_compression_disabled_means_no_codec(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
        doc["client_configs"]["comm_configs"] = {
            "compressor_configs": {"enable_compression": False, "error_bound": 0.1}
        }
        cfg = load_config(write_server(tmp_path, doc))
        assert cfg.clients[0].codec is None

    def test_privacy_section(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
        doc["client_configs"]["privacy_configs"] = {
            "enabled": True,
            "epsilon": 1.0,
            "clip_norm": 5.0,
        }
        cfg = load_config(write_server(tmp_path, doc))
        priv = cfg.clients[0].privacy
        assert priv.enabled and priv.epsilon == 1.0 and priv.clip_norm == 5.0

    def test_comm_bind_parses(self, tmp_path):
        cfg = load_config(
            write_server(tmp_path, SERVER_DOC, **{"server_configs.comm": {"bind": "0.0.0.0:5005"}})
        )
        assert cfg.comm.bind_host == "0.0.0.0"
        assert cfg.comm.bind_port == 5005


class TestValidation:
    def test_unknown_aggregator(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, **{"server_configs.aggregator": "FedSGD"})
        with pytest.raises(UnknownStrategyName, match="FedSGD"):
            load_config(path)

    def test_unknown_scheduler(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, **{"server_configs.scheduler": "Cyclic"})
        with pytest.raises(UnknownStrategyName, match="Cyclic"):
            load_config(path)

    def test_an_unknown_compass_kwarg_is_an_unknown_key(self, tmp_path):
        path = write_server(
            tmp_path, SERVER_DOC,
            **{"server_configs.scheduler": "CompassScheduler", "server_configs.scheduler_kwargs": {"qmn": 5}},
        )
        with pytest.raises(UnknownKey, match=r"scheduler_kwargs\.qmn"):
            load_config(path)

    def test_compass_kwargs_keep_their_types(self, tmp_path):
        kwargs = {"qmin": 3, "qmax": 9, "latitude": 1, "speed_ema": None}
        path = write_server(
            tmp_path, SERVER_DOC,
            **{"server_configs.scheduler": "CompassScheduler", "server_configs.scheduler_kwargs": kwargs},
        )
        cfg = load_config(path)
        assert cfg.scheduler_kwargs == {"qmin": 3, "qmax": 9, "latitude": 1.0}
        assert type(cfg.scheduler_kwargs["latitude"]) is float

    def test_unknown_trainer(self, tmp_path):
        path = write_server(
            tmp_path, SERVER_DOC, **{"client_configs.train_configs.trainer": "DIYTrainer"}
        )
        with pytest.raises(UnknownKey, match=r"train_configs\.trainer"):
            load_config(path)

    def test_unknown_dataset(self, tmp_path):
        path = write_server(
            tmp_path, SERVER_DOC, **{"client_configs.data_configs.dataset_name": "imagenet"}
        )
        with pytest.raises(UnknownStrategyName, match="imagenet"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, severs="oops")
        with pytest.raises(UnknownKey, match="severs"):
            load_config(path)

    def test_unknown_nested_key_reports_dotted_path(self, tmp_path):
        path = write_server(
            tmp_path, SERVER_DOC, **{"client_configs.train_configs.learning_rate": 0.1}
        )
        with pytest.raises(UnknownKey, match=r"train_configs\.learning_rate"):
            load_config(path)

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("topology", {"kind": "tree"}),
            ("client_configs.train_configs.device", "cpu"),
            ("client_configs.train_configs.logging_dir", "logs"),
            ("client_configs.train_configs.checkpoint_dir", "ck"),
        ],
    )
    def test_removed_sections_are_unknown_keys(self, tmp_path, dotted, value):
        path = write_server(tmp_path, SERVER_DOC, **{dotted: value})
        with pytest.raises(UnknownKey, match=dotted.rsplit(".", 1)[-1]):
            load_config(path)

    def test_missing_aggregator(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, **{"server_configs.aggregator": ...})
        with pytest.raises(MissingRequired, match="aggregator"):
            load_config(path)

    def test_missing_num_global_epochs(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, **{"server_configs.num_global_epochs": ...})
        with pytest.raises(MissingRequired):
            load_config(path)

    def test_missing_data_configs(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, **{"client_configs.data_configs": ...})
        with pytest.raises(MissingRequired, match="data_configs"):
            load_config(path)

    def test_duplicate_client_id(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
        doc["clients"].append({"client_id": "alpha"})
        with pytest.raises(ParseError, match="duplicate"):
            load_config(write_server(tmp_path, doc))

    def test_type_error_on_wrong_shape(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, **{"server_configs.num_global_epochs": "ten"})
        with pytest.raises(ParseError):
            load_config(path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("server_configs: [unclosed\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "listdoc.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ParseError):
            load_config(path)


class TestScenario:
    def test_partition_indices_injected_in_id_order(self, tmp_path):
        cfg = load_config(write_server(tmp_path))
        shards = [client_dataset(cfg, plan) for plan in cfg.clients]
        assert all(len(s.features) == 90 for s in shards)
        # the two shards must be disjoint draws from the same pool
        assert not np.array_equal(shards[0].features, shards[1].features)

    def test_build_scenario_uses_plan_batch_times(self, tmp_path):
        scen = build_scenario(load_config(write_server(tmp_path)))
        assert [c.mean_batch_time for c in scen.clients] == [1.0, 2.0]
        assert scen.eval_dataset is not None
        assert math.isinf(scen.bandwidth)

    def test_sim_overrides_batch_times(self, tmp_path):
        path = write_server(
            tmp_path,
            SERVER_DOC,
            sim={"mean_batch_times": {"alpha": 0.3, "beta": 0.9}, "fixed_latency": 0.1},
        )
        scen = build_scenario(load_config(path))
        assert [c.mean_batch_time for c in scen.clients] == [0.3, 0.9]
        assert scen.fixed_latency == 0.1

    def test_sim_batch_time_map_rejects_unknown_client(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, sim={"mean_batch_times": {"nobody": 1.0}})
        with pytest.raises(UnknownKey, match="nobody"):
            build_scenario(load_config(path))

    def test_sim_spread_draws_batch_times(self, tmp_path):
        path = write_server(
            tmp_path,
            SERVER_DOC,
            sim={"batch_time_fastest": 0.5, "batch_time_spread": 4.0, "seed": 11},
        )
        scen = build_scenario(load_config(path))
        times = sorted(c.mean_batch_time for c in scen.clients)
        assert times[0] == pytest.approx(0.5)
        assert times[-1] == pytest.approx(2.0)

    def test_mixed_client_codecs_rejected_for_simulation(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
        doc["clients"][1]["comm_configs"] = {
            "compressor_configs": {"enable_compression": True, "lossy_compressor": "qz"}
        }
        cfg = load_config(write_server(tmp_path, doc))
        assert cfg.clients[0].codec is None and cfg.clients[1].codec is not None
        with pytest.raises(ConfigError, match="'alpha' and 'beta'"):
            build_scenario(cfg)

    def test_shared_client_codec_reaches_the_scenario(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
        doc["client_configs"]["comm_configs"] = {
            "compressor_configs": {"enable_compression": True, "lossy_compressor": "qz"}
        }
        cfg = load_config(write_server(tmp_path, doc))
        assert build_scenario(cfg).codec == cfg.clients[0].codec is not None

    def test_model_configs_required_for_simulation(self, tmp_path):
        path = write_server(tmp_path, SERVER_DOC, **{"server_configs.model_configs": ...})
        cfg = load_config(path)
        with pytest.raises(MissingRequired, match="model_configs"):
            build_scenario(cfg)


def test_resolved_snapshot_roundtrips(tmp_path):
    cfg = load_config(write_server(tmp_path))
    out = dump_resolved(cfg, tmp_path / "run" / "config.yaml")
    again = yaml.safe_load(out.read_text())
    assert again["server_configs"]["aggregator"] == "FedAvgAggregator"
    assert {c["client_id"] for c in again["clients"]} == {"alpha", "beta"}


# -- a null means unset -----------------------------------------------------------


def _readme_example() -> dict:
    block = re.search(r"A complete working example:\n\n```yaml\n(.*?)```", README.read_text(), re.S)
    return yaml.safe_load(block.group(1))


def _leaf_paths(node, path=()):
    """The path of every leaf key, through mappings and lists of mappings."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, (*path, key))
    elif isinstance(node, list) and node and all(isinstance(e, dict) for e in node):
        for i, entry in enumerate(node):
            yield from _leaf_paths(entry, (*path, i))
    else:
        yield path


README_LEAVES = list(_leaf_paths(_readme_example()))


def _dataset(ds):
    return None if ds is None else (ds.features.tobytes(), ds.labels.tobytes(), ds.task)


def _outcome(tmp_path, doc):
    """What a config builds: its ExperimentConfig and SimScenario fields, or its ConfigError."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    try:
        cfg = load_config(path)
        scenario = build_scenario(cfg)
    except ConfigError as e:
        return type(e)
    fields = {f.name: getattr(scenario, f.name) for f in dataclasses.fields(scenario)}
    fields["clients"] = [
        (c.client_id, c.train, c.mean_batch_time, c.privacy, _dataset(c.dataset))
        for c in scenario.clients
    ]
    fields["eval_dataset"] = _dataset(scenario.eval_dataset)
    # resolved is the snapshot of the file as written, nulls and all
    return dataclasses.replace(cfg, resolved={}), fields


@pytest.mark.parametrize("leaf", README_LEAVES, ids=lambda leaf: ".".join(map(str, leaf)))
def test_a_null_key_builds_what_an_absent_key_builds(tmp_path, leaf):
    absent, null = _readme_example(), _readme_example()
    for doc in (absent, null):
        node = doc
        for part in leaf[:-1]:
            node = node[part]
        if doc is absent:
            del node[leaf[-1]]
        else:
            node[leaf[-1]] = None
    assert _outcome(tmp_path, null) == _outcome(tmp_path, absent)


def test_the_readme_walk_reaches_every_section():
    assert {leaf[0] for leaf in README_LEAVES} == {"server_configs", "client_configs", "clients", "sim"}
    assert ("clients", 1, "mean_batch_time") in README_LEAVES


def test_a_null_client_override_keeps_the_shared_value(tmp_path):
    doc = yaml.safe_load(yaml.safe_dump(SERVER_DOC))
    doc["clients"][1]["train_configs"] = {"lr": None, "local_steps": 3}
    beta = load_config(write_server(tmp_path, doc)).clients[1]
    assert beta.train.lr == 0.05 and beta.train.local_steps == 3


def test_a_null_batch_time_in_the_sim_map_keeps_the_clients_own(tmp_path):
    path = write_server(tmp_path, SERVER_DOC, sim={"mean_batch_times": {"alpha": 0.3, "beta": None}})
    scen = build_scenario(load_config(path))
    assert [c.mean_batch_time for c in scen.clients] == [0.3, 2.0]


def test_a_float_key_takes_an_int(tmp_path):
    path = write_server(tmp_path, SERVER_DOC, **{"client_configs.train_configs.lr": 1}, sim={"jitter": 0})
    cfg = load_config(path)
    assert type(cfg.clients[0].train.lr) is float and type(cfg.sim["jitter"]) is float


def test_an_unknown_blobs_kwarg_is_a_parse_error():
    with pytest.raises(ParseError, match="dimm"):
        build_dataset("blobs", {"dimm": 5})


def test_a_partition_without_a_scheme_is_missing_required():
    with pytest.raises(MissingRequired, match="scheme"):
        build_dataset("blobs", {"classes": 3, "partition": {"n_clients": 2, "index": 0}})


def test_dataset_kwargs_drop_nulls_at_every_level():
    kwargs = {"classes": 3, "dim": 4, "per_class": 10, "seed": 2}
    part = {"scheme": "iid", "n_clients": 2, "index": 1}
    plain = build_dataset("blobs", dict(kwargs, partition=part))
    nulls = build_dataset("blobs", dict(kwargs, spread=None, partition=dict(part, seed=None)))
    assert np.array_equal(plain.features, nulls.features)


def test_importing_fedkit_leaves_yaml_unloaded_until_a_config_is_read(tmp_path):
    path = write_server(tmp_path, SERVER_DOC)
    probe = (
        "import sys\n"
        "import fedkit.config, fedkit.runner, fedkit.sim, fedkit.transport\n"
        "assert 'yaml' not in sys.modules, 'yaml imported with fedkit'\n"
        "cfg = fedkit.config.load_config(sys.argv[1])\n"
        "print(cfg.aggregator, *(p.client_id for p in cfg.clients))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["FedAvgAggregator", "alpha", "beta"]
