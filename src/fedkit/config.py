"""Experiment configuration: YAML loading, strict validation, merging.

One server file carries ``server_configs`` plus a ``client_configs``
section of settings shared by every client; each client then has its own
file (or an entry under an inline ``clients:`` list) whose fields override
the shared ones field-wise.  Unknown keys anywhere are hard errors so
typos fail fast instead of silently using defaults.

The loader produces plain dataclasses plus a ``resolved`` dict snapshot
(what run directories persist), and ``build_scenario`` turns a config into
a ready-to-run simulation scenario, instantiating datasets and auto-filling
per-client partition indices.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .aggregators import AGGREGATORS
from .client import TrainConfig
from .compression import CodecConfig
from .errors import ConfigError, MissingRequired, ParseError, UnknownKey, UnknownStrategyName
from .models import DATASETS, ModelSpec, build_dataset
from .privacy import PrivacyConfig
from .schedulers import SCHEDULERS
from .sim import SimClient, SimScenario, draw_batch_times
from .transport import TOKEN_ENV_VAR
from .wire import DEFAULT_INLINE_LIMIT, MAX_PAYLOAD

_TRAIN_KEYS = {
    "optimizer": str,
    "lr": float,
    "batch_size": int,
    "local_steps": int,
    "prox_mu": float,
    "send_delta": bool,
    "seed": int,
}
_PRIVACY_KEYS = {"enabled": bool, "epsilon": float, "clip_norm": float, "clip_kind": str}
_COMPRESSOR_KEYS = {
    "enable_compression": bool,
    "lossy_compressor": str,
    "lossless_compressor": str,
    "error_bound": float,
    "small_tensor_threshold": int,
}
_DATA_KEYS = {"dataset_name": str, "dataset_kwargs": dict}
_MODEL_KEYS = {"layer_dims": list, "activation": str, "loss": str, "init_seed": int}
_COMM_KEYS = {
    "bind": str,
    "auth_token": str,
    "auth_token_env": str,
    "inline_limit": int,
    "max_payload": int,
}
_SIM_KEYS = {
    "mean_batch_times": dict,
    "batch_time_fastest": float,
    "batch_time_spread": float,
    "fixed_latency": float,
    "bandwidth": float,
    "jitter": float,
    "seed": int,
    "max_events": int,
    "max_updates": int,
}
_SERVER_KEYS = {
    "aggregator": str,
    "aggregator_kwargs": dict,
    "scheduler": str,
    "scheduler_kwargs": dict,
    "num_global_epochs": int,
    "model_configs": dict,
    "evaluation": dict,
    "comm": dict,
}
_SHARED_CLIENT_KEYS = {
    "train_configs": dict,
    "comm_configs": dict,
    "privacy_configs": dict,
    "data_configs": dict,
}
_PER_CLIENT_KEYS = dict(_SHARED_CLIENT_KEYS, client_id=str, mean_batch_time=float)
_TOP_KEYS = {
    "server_configs": dict,
    "client_configs": dict,
    "clients": list,
    "sim": dict,
}


def _check_keys(section: dict, allowed: dict, path: str) -> None:
    if not isinstance(section, dict):
        raise ParseError(f"{path}: expected a mapping, got {type(section).__name__}")
    for key, value in section.items():
        if key not in allowed:
            raise UnknownKey(f"{path}.{key}: unknown key (known: {sorted(allowed)})")
        want = allowed[key]
        if value is None:
            continue
        if want is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            continue
        if want is int and isinstance(value, bool):
            raise ParseError(f"{path}.{key}: expected {want.__name__}, got bool")
        if not isinstance(value, want):
            raise ParseError(
                f"{path}.{key}: expected {want.__name__}, got {type(value).__name__}"
            )


def _require(section: dict, key: str, path: str):
    if key not in section or section[key] is None:
        raise MissingRequired(f"{path}.{key} is required")
    return section[key]


def _merge(shared: dict, override: dict) -> dict:
    """Field-wise recursive merge; override wins on scalars, recurses on dicts."""
    out = copy.deepcopy(shared)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass(frozen=True)
class CommSettings:
    bind_host: str = "127.0.0.1"
    bind_port: int = 0
    auth_token: Optional[str] = None  # literal wins over env var
    auth_token_env: str = TOKEN_ENV_VAR
    inline_limit: int = DEFAULT_INLINE_LIMIT
    max_payload: int = MAX_PAYLOAD

    def resolve_token(self) -> bytes:
        if self.auth_token is not None:
            return self.auth_token.encode("utf-8")
        return os.environ.get(self.auth_token_env, "").encode("utf-8")


@dataclass(frozen=True)
class ClientPlan:
    client_id: str
    dataset_name: str
    dataset_kwargs: dict
    train: TrainConfig
    privacy: Optional[PrivacyConfig]
    codec: Optional[CodecConfig]
    mean_batch_time: float = 1.0


@dataclass
class ExperimentConfig:
    aggregator: str
    aggregator_kwargs: dict
    scheduler: str
    scheduler_kwargs: dict
    num_global_epochs: int
    model_spec: Optional[ModelSpec]
    init_seed: int
    evaluation: Optional[dict]  # {dataset_name, dataset_kwargs}
    comm: CommSettings
    clients: list = field(default_factory=list)
    sim: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)


def _load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as e:
        raise ParseError(f"cannot read config: {e}") from e
    except yaml.YAMLError as e:
        raise ParseError(f"{path}: {e}") from e
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return doc


def _parse_train(merged: dict, path: str) -> TrainConfig:
    _check_keys(merged, _TRAIN_KEYS, path)
    kwargs = {k: v for k, v in merged.items() if v is not None}
    for key in ("lr", "prox_mu"):
        if key in kwargs:
            kwargs[key] = float(kwargs[key])
    try:
        return TrainConfig(**kwargs)
    except TypeError as e:
        raise ParseError(f"{path}: {e}") from e


def _parse_privacy(section: dict, path: str) -> Optional[PrivacyConfig]:
    if not section:
        return None
    _check_keys(section, _PRIVACY_KEYS, path)
    kwargs = {k: v for k, v in section.items() if v is not None}
    if "epsilon" in kwargs:
        kwargs["epsilon"] = float(kwargs["epsilon"])
    if "clip_norm" in kwargs:
        kwargs["clip_norm"] = float(kwargs["clip_norm"])
    return PrivacyConfig(**kwargs)


def _parse_codec(comm_configs: dict, path: str) -> Optional[CodecConfig]:
    if not comm_configs:
        return None
    _check_keys(comm_configs, {"compressor_configs": dict}, path)
    section = comm_configs.get("compressor_configs") or {}
    if not section:
        return None
    _check_keys(section, _COMPRESSOR_KEYS, f"{path}.compressor_configs")
    if not section.get("enable_compression", False):
        return None
    kwargs = {}
    if "lossy_compressor" in section:
        kwargs["lossy"] = section["lossy_compressor"]
    if "lossless_compressor" in section:
        kwargs["lossless"] = section["lossless_compressor"]
    if "error_bound" in section:
        kwargs["eb_rel"] = float(section["error_bound"])
    if "small_tensor_threshold" in section:
        kwargs["small_tensor_threshold"] = int(section["small_tensor_threshold"])
    return CodecConfig(**kwargs)


def _parse_data(section: dict, path: str) -> tuple[str, dict]:
    _check_keys(section, _DATA_KEYS, path)
    name = _require(section, "dataset_name", path)
    if name not in DATASETS:
        raise UnknownStrategyName(f"{path}.dataset_name: {name!r} (known: {sorted(DATASETS)})")
    return name, copy.deepcopy(section.get("dataset_kwargs") or {})


def _parse_model(section: dict, path: str) -> tuple[Optional[ModelSpec], int]:
    if not section:
        return None, 0
    _check_keys(section, _MODEL_KEYS, path)
    dims = tuple(int(d) for d in _require(section, "layer_dims", path))
    spec = ModelSpec(
        layer_dims=dims,
        activation=section.get("activation", "relu"),
        loss=_require(section, "loss", path),
    )
    return spec, int(section.get("init_seed", 0))


def _parse_comm(section: dict, path: str) -> CommSettings:
    if not section:
        return CommSettings()
    _check_keys(section, _COMM_KEYS, path)
    host, port = "127.0.0.1", 0
    bind = section.get("bind")
    if bind:
        if ":" not in bind:
            raise ParseError(f"{path}.bind: expected host:port, got {bind!r}")
        host, _, port_s = bind.rpartition(":")
        try:
            port = int(port_s)
        except ValueError:
            raise ParseError(f"{path}.bind: bad port {port_s!r}") from None
    return CommSettings(
        bind_host=host,
        bind_port=port,
        auth_token=section.get("auth_token"),
        auth_token_env=section.get("auth_token_env", TOKEN_ENV_VAR),
        inline_limit=int(section.get("inline_limit", DEFAULT_INLINE_LIMIT)),
        max_payload=int(section.get("max_payload", MAX_PAYLOAD)),
    )


def load_config(server_path, client_paths=()) -> ExperimentConfig:
    """Parse and validate the server file plus any per-client files."""
    doc = _load_yaml(server_path)
    _check_keys(doc, _TOP_KEYS, "<top>")
    server = _require(doc, "server_configs", "<top>")
    _check_keys(server, _SERVER_KEYS, "server_configs")

    aggregator = _require(server, "aggregator", "server_configs")
    if aggregator not in AGGREGATORS:
        raise UnknownStrategyName(
            f"server_configs.aggregator: {aggregator!r} (known: {sorted(AGGREGATORS)})"
        )
    scheduler = server.get("scheduler", "SyncScheduler")
    if scheduler not in SCHEDULERS:
        raise UnknownStrategyName(
            f"server_configs.scheduler: {scheduler!r} (known: {sorted(SCHEDULERS)})"
        )
    epochs = int(_require(server, "num_global_epochs", "server_configs"))
    if epochs < 1:
        raise ParseError(f"server_configs.num_global_epochs must be >= 1, got {epochs}")

    model_spec, init_seed = _parse_model(server.get("model_configs") or {}, "server_configs.model_configs")
    evaluation = None
    if server.get("evaluation"):
        name, kwargs = _parse_data(server["evaluation"], "server_configs.evaluation")
        evaluation = {"dataset_name": name, "dataset_kwargs": kwargs}
    comm = _parse_comm(server.get("comm") or {}, "server_configs.comm")

    shared = doc.get("client_configs") or {}
    _check_keys(shared, _SHARED_CLIENT_KEYS, "client_configs")

    entries: list[tuple[dict, str]] = []
    for i, entry in enumerate(doc.get("clients") or []):
        entries.append((entry, f"clients[{i}]"))
    for p in client_paths:
        entries.append((_load_yaml(p), str(p)))
    if not entries:
        raise MissingRequired("no clients: add a clients: list or pass client config files")

    plans: list[ClientPlan] = []
    seen_ids = set()
    for entry, where in entries:
        _check_keys(entry, _PER_CLIENT_KEYS, where)
        cid = _require(entry, "client_id", where)
        if cid in seen_ids:
            raise ParseError(f"{where}: duplicate client_id {cid!r}")
        seen_ids.add(cid)
        merged = _merge(shared, {k: v for k, v in entry.items() if k in _SHARED_CLIENT_KEYS})
        data_section = merged.get("data_configs") or {}
        if not data_section:
            raise MissingRequired(f"{where}.data_configs is required")
        name, kwargs = _parse_data(data_section, f"{where}.data_configs")
        plans.append(
            ClientPlan(
                client_id=cid,
                dataset_name=name,
                dataset_kwargs=kwargs,
                train=_parse_train(merged.get("train_configs") or {}, f"{where}.train_configs"),
                privacy=_parse_privacy(merged.get("privacy_configs") or {}, f"{where}.privacy_configs"),
                codec=_parse_codec(merged.get("comm_configs") or {}, f"{where}.comm_configs"),
                mean_batch_time=float(entry.get("mean_batch_time") or 1.0),
            )
        )
    plans.sort(key=lambda p: p.client_id)

    sim = doc.get("sim") or {}
    _check_keys(sim, _SIM_KEYS, "sim")

    resolved = copy.deepcopy(doc)
    resolved["clients"] = [e for e, _ in entries]
    return ExperimentConfig(
        aggregator=aggregator,
        aggregator_kwargs=copy.deepcopy(server.get("aggregator_kwargs") or {}),
        scheduler=scheduler,
        scheduler_kwargs=copy.deepcopy(server.get("scheduler_kwargs") or {}),
        num_global_epochs=epochs,
        model_spec=model_spec,
        init_seed=init_seed,
        evaluation=evaluation,
        comm=comm,
        clients=plans,
        sim=copy.deepcopy(sim),
        resolved=resolved,
    )


def _auto_partition(plan: ClientPlan, index: int, n_clients: int) -> dict:
    """Fill in partition index/n_clients so one shared stanza fans out."""
    kwargs = copy.deepcopy(plan.dataset_kwargs)
    part = kwargs.get("partition")
    if isinstance(part, dict):
        part.setdefault("n_clients", n_clients)
        part.setdefault("index", index)
    return kwargs


def client_dataset(cfg: ExperimentConfig, plan: ClientPlan):
    index = [p.client_id for p in cfg.clients].index(plan.client_id)
    kwargs = _auto_partition(plan, index, len(cfg.clients))
    return build_dataset(plan.dataset_name, kwargs)


def build_scenario(cfg: ExperimentConfig) -> SimScenario:
    """Instantiate datasets and assemble the simulation scenario."""
    if cfg.model_spec is None:
        raise MissingRequired("server_configs.model_configs is required to simulate")
    # the simulator models one codec for every upload, so a mix cannot be
    # simulated faithfully; refuse it rather than model an uncompressed run
    codec = cfg.clients[0].codec if cfg.clients else None
    for plan in cfg.clients:
        if plan.codec != codec:
            raise ConfigError(
                f"clients {cfg.clients[0].client_id!r} and {plan.client_id!r} use different "
                "codecs; the simulator needs one codec for every client"
            )
    sim = cfg.sim
    mbt_map = sim.get("mean_batch_times") or {}
    if mbt_map:
        unknown = set(mbt_map) - {p.client_id for p in cfg.clients}
        if unknown:
            raise UnknownKey(f"sim.mean_batch_times: unknown clients {sorted(unknown)}")
        times = [float(mbt_map.get(p.client_id, p.mean_batch_time)) for p in cfg.clients]
    elif "batch_time_fastest" in sim or "batch_time_spread" in sim:
        times = draw_batch_times(
            len(cfg.clients),
            fastest=float(sim.get("batch_time_fastest", 0.2)),
            spread=float(sim.get("batch_time_spread", 10.0)),
            seed=int(sim.get("seed", 0)),
        )
    else:
        times = [p.mean_batch_time for p in cfg.clients]

    clients = [
        SimClient(
            client_id=plan.client_id,
            dataset=client_dataset(cfg, plan),
            train=plan.train,
            mean_batch_time=times[i],
            privacy=plan.privacy,
        )
        for i, plan in enumerate(cfg.clients)
    ]
    eval_dataset = None
    if cfg.evaluation is not None:
        eval_dataset = build_dataset(cfg.evaluation["dataset_name"], cfg.evaluation["dataset_kwargs"])

    bandwidth = sim.get("bandwidth", math.inf)
    bandwidth = math.inf if bandwidth in (None, ".inf") else float(bandwidth)
    return SimScenario(
        model_spec=cfg.model_spec,
        clients=clients,
        num_global_epochs=cfg.num_global_epochs,
        scheduler=cfg.scheduler,
        scheduler_kwargs=cfg.scheduler_kwargs,
        aggregator=cfg.aggregator,
        aggregator_kwargs=cfg.aggregator_kwargs,
        eval_dataset=eval_dataset,
        init_seed=cfg.init_seed,
        fixed_latency=float(sim.get("fixed_latency", 0.0)),
        bandwidth=bandwidth,
        codec=codec,
        jitter=float(sim.get("jitter", 0.0)),
        seed=int(sim.get("seed", 0)),
        max_events=int(sim.get("max_events", 1_000_000)),
        max_updates=(int(sim["max_updates"]) if sim.get("max_updates") is not None else None),
    )


def dump_resolved(cfg: ExperimentConfig, path) -> Path:
    """Persist the validated config snapshot into a run directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        yaml.safe_dump(cfg.resolved, fh, sort_keys=True)
    return path
