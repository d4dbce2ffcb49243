"""Run a validated config for real: one process per role, TCP in between.

``run_server`` blocks until the server agent is done (``make_server_agent``
decides when), then writes the run directory with ``write_run_dir``:
resolved config snapshot, metric log, and the final model.
``run_client`` is the matching worker loop.  ``run_local`` wires both sides
up inside a single process, which is handy for demos and for checking that
a networked run reproduces the simulator's model.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .client import ClientState, local_train
from .config import ClientPlan, ExperimentConfig, client_dataset, dump_resolved
from .errors import ConfigError
from .metrics import export_metrics
from .models import build_dataset, dataset_metrics
from .params import MetricRecord, ParameterSet, save_params
from .server import ServerAgent, make_server_agent
from .transport import Communicator, SocketServer

DEFAULT_METRICS_FORMAT = "csv"


def make_client_state(cfg: ExperimentConfig, plan: ClientPlan) -> ClientState:
    return ClientState(
        plan.client_id,
        client_dataset(cfg, plan),
        cfg.model_spec,
        plan.train,
        privacy=plan.privacy,
    )


@dataclass
class RunOutputs:
    final_params: ParameterSet
    epoch: int
    updates_processed: int
    metrics: list
    run_dir: Optional[Path] = None


def write_run_dir(
    run_dir, cfg: ExperimentConfig, metrics, params: ParameterSet,
    metrics_format: str = DEFAULT_METRICS_FORMAT,
) -> Path:
    """Write a run directory: config snapshot, metric file and final model.

    The metric file is replaced, not appended to, so a directory that a
    second run writes into holds that run's records only.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    dump_resolved(cfg, run_dir / "config.yaml")
    for suffix in ("csv", "jsonl"):
        (run_dir / f"metrics.{suffix}").unlink(missing_ok=True)
    suffix = "jsonl" if metrics_format == "jsonl" else "csv"
    export_metrics(metrics, metrics_format, run_dir / f"metrics.{suffix}")
    save_params(params, run_dir / "model.bin")
    return run_dir


def _finish(cfg, agent: ServerAgent, now: float, run_dir, metrics_format) -> RunOutputs:
    """End a socket run at server time ``now``: finalize, evaluate, write the run directory."""
    agent.finalize(now)
    if cfg.evaluation is not None:
        ds = build_dataset(cfg.evaluation["dataset_name"], cfg.evaluation["dataset_kwargs"])
        scores = dataset_metrics(cfg.model_spec, agent.global_params, ds)
        for kind, value in sorted(scores.items()):
            agent.metrics.append(MetricRecord(now, "server", f"val_{kind}", float(value)))
    if run_dir is not None:
        run_dir = write_run_dir(run_dir, cfg, agent.metrics, agent.global_params, metrics_format)
    return RunOutputs(agent.global_params, agent.epoch, agent.update_count, agent.metrics, run_dir)


def serve(cfg: ExperimentConfig, port: Optional[int] = None) -> SocketServer:
    """Start (but do not block on) the TCP server for a config."""
    return SocketServer(
        make_server_agent(cfg),
        host=cfg.comm.bind_host,
        port=cfg.comm.bind_port if port is None else port,
        token=cfg.comm.resolve_token(),
        inline_limit=cfg.comm.inline_limit,
        max_payload=cfg.comm.max_payload,
    )


def run_server(
    cfg: ExperimentConfig,
    run_dir=None,
    port: Optional[int] = None,
    timeout: Optional[float] = None,
    metrics_format: str = DEFAULT_METRICS_FORMAT,
) -> RunOutputs:
    """Serve until the run completes, then persist outputs."""
    with serve(cfg, port=port) as srv:
        if not srv.wait_done(timeout=timeout):
            raise TimeoutError(f"run did not finish within {timeout} seconds")
        return _finish(cfg, srv.agent, srv.now(), run_dir, metrics_format)


def run_client(
    cfg: ExperimentConfig,
    client_id: str,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> int:
    """Train-submit loop until the server says the run is over.

    Returns the number of rounds this client contributed.
    """
    plans = {p.client_id: p for p in cfg.clients}
    if client_id not in plans:
        raise ConfigError(f"unknown client {client_id!r}; known: {sorted(plans)}")
    plan = plans[client_id]
    state = make_client_state(cfg, plan)
    rounds = 0
    with Communicator(
        host if host is not None else cfg.comm.bind_host,
        port if port is not None else cfg.comm.bind_port,
        token=cfg.comm.resolve_token(),
        max_payload=cfg.comm.max_payload,
    ) as com:
        params, epoch, steps, done = com.fetch_model(client_id)
        while not done:
            update = local_train(state, params, steps=steps, base_epoch=epoch)
            params, epoch, steps, done = com.submit_update(
                update, codec=plan.codec, inline_limit=cfg.comm.inline_limit
            )
            rounds += 1
    return rounds


def run_local(
    cfg: ExperimentConfig,
    run_dir=None,
    timeout: float = 300.0,
    metrics_format: str = DEFAULT_METRICS_FORMAT,
) -> RunOutputs:
    """Server plus every client in one process, over real sockets."""
    with serve(cfg, port=0) as srv:
        failures: list[BaseException] = []

        def drive(cid: str) -> None:
            try:
                run_client(cfg, cid, host=srv.host, port=srv.port)
            except BaseException as e:  # surfaced by the caller
                failures.append(e)
                srv.stop()  # wakes wait_done below at once

        threads = [
            threading.Thread(target=drive, args=(p.client_id,), daemon=True)
            for p in cfg.clients
        ]
        for t in threads:
            t.start()
        finished = srv.wait_done(timeout=timeout)
        if failures:
            raise failures[0]
        if not finished:
            raise TimeoutError(f"local run did not finish within {timeout} seconds")
        for t in threads:
            t.join(timeout=5.0)
        return _finish(cfg, srv.agent, srv.now(), run_dir, metrics_format)
