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
import inspect
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .aggregators import AGGREGATORS, make_aggregator
from .client import TrainConfig
from .compression import CodecConfig
from .errors import (
    ConfigError,
    InvalidBounds,
    MissingRequired,
    ParseError,
    UnknownKey,
    UnknownStrategyName,
)
from .models import ACTIVATIONS, DATASETS, LOSSES, ModelSpec, build_dataset, without_nulls
from .privacy import PrivacyConfig
from .schedulers import SCHEDULERS, make_scheduler
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
# the CodecConfig field of each APPFL compressor key whose name differs
_CODEC_FIELDS = {"lossy_compressor": "lossy", "lossless_compressor": "lossless", "error_bound": "eb_rel"}
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


def _check_keys(section, allowed: dict, path: str) -> dict:
    """The keys of a config section that are set, checked against ``allowed``.

    A null means unset: its key is left out, so the class that the section
    configures applies its own default.  An int where a float is declared
    becomes a float.
    """
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ParseError(f"{path}: expected a mapping, got {type(section).__name__}")
    out = {}
    for key, value in section.items():
        if key not in allowed:
            raise UnknownKey(f"{path}.{key}: unknown key (known: {sorted(allowed)})")
        want = allowed[key]
        if value is None:
            continue
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        elif (want is int and isinstance(value, bool)) or not isinstance(value, want):
            raise ParseError(f"{path}.{key}: expected {want.__name__}, got {type(value).__name__}")
        out[key] = value
    return out


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise MissingRequired(f"{path}.{key} is required")
    return section[key]


def _merge(shared: dict, override: dict) -> dict:
    """Field-wise recursive merge; override wins on scalars, recurses on dicts.

    A null in ``override`` is unset, so the shared value stays.
    """
    out = copy.deepcopy(shared)
    for key, value in override.items():
        if value is None:
            continue
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
    import yaml  # on first use: at module level it adds 13-15 ms to every import of fedkit.config

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


def _parse_privacy(section, path: str) -> Optional[PrivacyConfig]:
    kwargs = _check_keys(section, _PRIVACY_KEYS, path)
    return PrivacyConfig(**kwargs) if kwargs else None


def _parse_codec(comm_configs, path: str) -> Optional[CodecConfig]:
    comm = _check_keys(comm_configs, {"compressor_configs": dict}, path)
    path += ".compressor_configs"
    section = _check_keys(comm.get("compressor_configs"), _COMPRESSOR_KEYS, path)
    if not section.pop("enable_compression", False):
        return None
    kwargs = {}
    for key, value in section.items():
        field = _CODEC_FIELDS.get(key, key)
        try:  # one value at a time, so that an error names its key
            CodecConfig(**{field: value})
        except UnknownStrategyName as e:
            raise ParseError(f"{path}.{key}: {str(e).removeprefix(field + ' ')}") from None
        kwargs[field] = value
    return CodecConfig(**kwargs)


def _parse_data(section, path: str) -> tuple[str, dict]:
    section = _check_keys(section, _DATA_KEYS, path)
    name = _require(section, "dataset_name", path)
    if name not in DATASETS:
        raise UnknownStrategyName(f"{path}.dataset_name: {name!r} (known: {sorted(DATASETS)})")
    return name, without_nulls(section.get("dataset_kwargs", {}))


def _parse_model(section, path: str) -> tuple[Optional[ModelSpec], int]:
    kwargs = _check_keys(section, _MODEL_KEYS, path)
    if not kwargs:
        return None, 0
    init_seed = kwargs.pop("init_seed", 0)
    dims = _require(kwargs, "layer_dims", path)
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ParseError(f"{path}.layer_dims: expected a list of ints, got {dims!r}")
    _require(kwargs, "loss", path)
    for key, known in (("activation", ACTIVATIONS), ("loss", LOSSES)):
        if kwargs.get(key, known[0]) not in known:
            raise ParseError(f"{path}.{key}: unknown {key} {kwargs[key]!r} (known: {list(known)})")
    return ModelSpec(**kwargs), init_seed


def _parse_comm(section, path: str) -> CommSettings:
    kwargs = _check_keys(section, _COMM_KEYS, path)
    bind = kwargs.pop("bind", None)
    if bind:
        if ":" not in bind:
            raise ParseError(f"{path}.bind: expected host:port, got {bind!r}")
        kwargs["bind_host"], _, port = bind.rpartition(":")
        try:
            kwargs["bind_port"] = int(port)
        except ValueError:
            raise ParseError(f"{path}.bind: bad port {port!r}") from None
    return CommSettings(**kwargs)


def _kwarg_types(cls) -> dict:
    """The type of each keyword argument of ``cls``, as its default declares it."""
    params = inspect.signature(cls).parameters.values()
    return {p.name: type(p.default) for p in params if p.default is not p.empty}


def _check_kwargs(key: str, make, *args) -> None:
    """Build a scheduler or aggregator once, so that bad kwargs fail here, not mid-run.

    ``args`` are ``make``'s, the kwargs from ``server_configs.<key>`` last.
    """
    try:
        make(*args)
    except (TypeError, ValueError, InvalidBounds) as e:
        raise ParseError(f"server_configs.{key} {args[-1]}: {e}") from None


def load_config(server_path, client_paths=()) -> ExperimentConfig:
    """Parse and validate the server file plus any per-client files."""
    raw = _load_yaml(server_path)
    doc = _check_keys(raw, _TOP_KEYS, "<top>")
    server = _check_keys(_require(doc, "server_configs", "<top>"), _SERVER_KEYS, "server_configs")

    aggregator = _require(server, "aggregator", "server_configs")
    scheduler = server.get("scheduler", "SyncScheduler")
    epochs = _require(server, "num_global_epochs", "server_configs")
    if epochs < 1:
        raise ParseError(f"server_configs.num_global_epochs must be >= 1, got {epochs}")

    model_spec, init_seed = _parse_model(server.get("model_configs"), "server_configs.model_configs")
    evaluation = None
    if server.get("evaluation"):
        name, kwargs = _parse_data(server["evaluation"], "server_configs.evaluation")
        evaluation = {"dataset_name": name, "dataset_kwargs": kwargs}
    comm = _parse_comm(server.get("comm"), "server_configs.comm")

    shared = _check_keys(doc.get("client_configs"), _SHARED_CLIENT_KEYS, "client_configs")

    entries = [(entry, f"clients[{i}]") for i, entry in enumerate(doc.get("clients", []))]
    entries += [(_load_yaml(p), str(p)) for p in client_paths]
    if not entries:
        raise MissingRequired("no clients: add a clients: list or pass client config files")

    plans: list[ClientPlan] = []
    seen_ids = set()
    for entry, where in entries:
        entry = _check_keys(entry, _PER_CLIENT_KEYS, where)
        cid = _require(entry, "client_id", where)
        if cid in seen_ids:
            raise ParseError(f"{where}: duplicate client_id {cid!r}")
        seen_ids.add(cid)
        merged = _merge(shared, {k: entry.pop(k) for k in _SHARED_CLIENT_KEYS if k in entry})
        if not merged.get("data_configs"):
            raise MissingRequired(f"{where}.data_configs is required")
        name, kwargs = _parse_data(merged["data_configs"], f"{where}.data_configs")
        train = _check_keys(merged.get("train_configs"), _TRAIN_KEYS, f"{where}.train_configs")
        plans.append(
            ClientPlan(
                dataset_name=name,
                dataset_kwargs=kwargs,
                train=TrainConfig(**train),
                privacy=_parse_privacy(merged.get("privacy_configs"), f"{where}.privacy_configs"),
                codec=_parse_codec(merged.get("comm_configs"), f"{where}.comm_configs"),
                **entry,  # client_id, and mean_batch_time when it is set
            )
        )
    plans.sort(key=lambda p: p.client_id)

    if aggregator not in AGGREGATORS:
        raise UnknownStrategyName(
            f"server_configs.aggregator: {aggregator!r} (known: {sorted(AGGREGATORS)})"
        )
    aggregator_kwargs = _check_keys(
        server.get("aggregator_kwargs"), _kwarg_types(AGGREGATORS[aggregator]),
        "server_configs.aggregator_kwargs",
    )
    if scheduler not in SCHEDULERS:
        raise UnknownStrategyName(
            f"server_configs.scheduler: {scheduler!r} (known: {sorted(SCHEDULERS)})"
        )
    scheduler_kwargs = _check_keys(
        server.get("scheduler_kwargs"), _kwarg_types(SCHEDULERS[scheduler]),
        "server_configs.scheduler_kwargs",
    )
    ids, steps = [p.client_id for p in plans], max(p.train.local_steps for p in plans)
    _check_kwargs("scheduler_kwargs", make_scheduler, scheduler, ids, steps, scheduler_kwargs)
    _check_kwargs("aggregator_kwargs", make_aggregator, aggregator, aggregator_kwargs)

    sim = _check_keys(doc.get("sim"), _SIM_KEYS, "sim")
    if "mean_batch_times" in sim:
        sim["mean_batch_times"] = _check_keys(
            sim["mean_batch_times"], dict.fromkeys(ids, float), "sim.mean_batch_times"
        )

    resolved = copy.deepcopy(raw)
    resolved["clients"] = [e for e, _ in entries]
    return ExperimentConfig(
        aggregator=aggregator,
        aggregator_kwargs=aggregator_kwargs,
        scheduler=scheduler,
        scheduler_kwargs=scheduler_kwargs,
        num_global_epochs=epochs,
        model_spec=model_spec,
        init_seed=init_seed,
        evaluation=evaluation,
        comm=comm,
        clients=plans,
        sim=sim,
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
    sim = dict(cfg.sim)
    mbt_map = sim.pop("mean_batch_times", {})  # client ids and floats, checked by load_config
    draw = {k: sim.pop(f"batch_time_{k}") for k in ("fastest", "spread") if f"batch_time_{k}" in sim}
    if mbt_map:
        times = [mbt_map.get(p.client_id, p.mean_batch_time) for p in cfg.clients]
    elif draw:
        times = draw_batch_times(len(cfg.clients), seed=sim.get("seed", 0), **draw)
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
        codec=codec,
        **sim,  # fixed_latency, bandwidth, jitter, seed, max_events, max_updates
    )


def dump_resolved(cfg: ExperimentConfig, path) -> Path:
    """Persist the validated config snapshot into a run directory."""
    import yaml

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        yaml.safe_dump(cfg.resolved, fh, sort_keys=True)
    return path
