"""Command-line front end.

Exit codes: 0 success, 1 runtime failure (network, auth, interrupted run),
2 invalid configuration or arguments.
"""
from __future__ import annotations

import argparse
import sys

from . import bench
from .config import build_scenario, load_config
from .errors import ConfigError, FedkitError
from .runner import run_client, run_local, run_server, write_run_dir
from .sim import run_simulation
from .transport import TOKEN_ENV_VAR


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="server configuration YAML")
    p.add_argument(
        "--client-config",
        action="append",
        default=[],
        metavar="PATH",
        help="per-client YAML (repeatable); merged over the shared client section",
    )


def _add_run_dir_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run-dir", help="directory for metrics, model, and config snapshot")
    p.add_argument("--metrics-format", choices=("csv", "jsonl"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedkit",
        description="Federated learning orchestration: simulate, run, and report.",
        epilog=f"Auth tokens come from the config or the {TOKEN_ENV_VAR} environment variable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="distributed run over TCP")
    _add_config_args(p)
    p.add_argument("--role", choices=("server", "client", "local"), required=True)
    p.add_argument("--client-id", help="which client to run (role=client)")
    p.add_argument("--host", help="server host override (role=client)")
    p.add_argument("--port", type=int, help="port override")
    p.add_argument("--timeout", type=float, default=None, help="seconds before giving up")
    _add_run_dir_args(p)

    p = sub.add_parser("simulate", help="virtual-clock simulation of the config")
    _add_config_args(p)
    _add_run_dir_args(p)

    p = sub.add_parser(
        "report-utilization",
        help="utilization and Gantt CSVs from re-simulating a run's config "
        "(for a socket run: the simulated schedule, not a measured one)",
    )
    p.add_argument("--run-dir", help="run directory holding config.yaml")
    p.add_argument("--config", help="config file (alternative to --run-dir)")
    p.add_argument("--out-dir", help="where to write the CSVs (default: next to the source)")

    p = sub.add_parser("validate-config", help="parse and validate without running")
    _add_config_args(p)
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.client_config)
    if args.role == "client":
        if not args.client_id:
            print("--client-id is required with --role client", file=sys.stderr)
            return 2
        rounds = run_client(cfg, args.client_id, host=args.host, port=args.port)
        print(f"client {args.client_id} finished after {rounds} rounds")
        return 0
    if args.role == "server":
        out = run_server(
            cfg,
            run_dir=args.run_dir,
            port=args.port,
            timeout=args.timeout,
            metrics_format=args.metrics_format,
        )
    else:
        out = run_local(
            cfg,
            run_dir=args.run_dir,
            timeout=args.timeout if args.timeout is not None else 300.0,
            metrics_format=args.metrics_format,
        )
    print(f"run complete: epoch={out.epoch} updates={out.updates_processed}")
    if out.run_dir:
        print(f"outputs in {out.run_dir}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.client_config)
    result = run_simulation(build_scenario(cfg))
    report = result.utilization
    print(
        f"simulated: epoch={result.epoch} updates={result.updates_processed} "
        f"virtual_time={result.virtual_time:.3f}s "
        f"mean_utilization={report.mean_utilization:.3f}"
    )
    for cid in sorted(report.per_client):
        print(f"  {cid}: utilization={report.per_client[cid].utilization:.3f}")
    tail = [m for m in result.metrics if m.kind.startswith("val_")][-2:]
    for m in tail:
        print(f"  final {m.kind}={m.value:.4f}")
    if args.run_dir:
        run_dir = write_run_dir(
            args.run_dir, cfg, result.metrics, result.final_params, args.metrics_format
        )
        report.write_tables(run_dir)
        print(f"outputs in {run_dir}")
    return 0


def _cmd_report_utilization(args) -> int:
    if bool(args.run_dir) == bool(args.config):
        print("give exactly one of --run-dir or --config", file=sys.stderr)
        return 2
    source = args.run_dir or args.config
    report = bench.report_utilization(source, out_dir=args.out_dir)
    for cid in sorted(report.per_client):
        u = report.per_client[cid]
        print(f"{cid}: compute={u.compute_seconds:.3f}s total={u.total_seconds:.3f}s "
              f"utilization={u.utilization:.3f}")
    return 0


def _cmd_validate_config(args) -> int:
    cfg = load_config(args.config, args.client_config)
    print(
        f"config OK: aggregator={cfg.aggregator} scheduler={cfg.scheduler} "
        f"epochs={cfg.num_global_epochs} clients={len(cfg.clients)}"
    )
    for plan in cfg.clients:
        bits = [f"dataset={plan.dataset_name}", f"steps={plan.train.local_steps}"]
        if plan.privacy and plan.privacy.enabled:
            bits.append(f"epsilon={plan.privacy.epsilon}")
        if plan.codec is not None:
            bits.append(f"codec={plan.codec.lossy}+{plan.codec.lossless}")
        print(f"  {plan.client_id}: " + " ".join(bits))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "report-utilization": _cmd_report_utilization,
    "validate-config": _cmd_validate_config,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FedkitError, ConnectionError, TimeoutError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
