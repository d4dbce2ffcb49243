"""Microbenchmarks with CSV output: wire round trips and codec ratios.

All benchmarks run against the real implementations (actual sockets,
actual compressors); nothing is mocked.  Results go to small CSV tables
meant for plotting elsewhere.
"""
from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .aggregators import make_aggregator
from .compression import CodecConfig, compress_params, decompress_params
from .config import build_scenario, load_config
from .errors import InvalidBounds, ParseError
from .metrics import write_table
from .params import ModelUpdate, ParameterSet, serialized_size
from .schedulers import make_scheduler
from .server import ServerAgent
from .sim import UtilizationReport, run_simulation
from .transport import Communicator, SocketServer
from .wire import FilesystemConnector

TRANSPORTS = ("inline", "dataref")

# synthetic stand-ins named by parameter count, smallest to largest
DEFAULT_BENCH_PARAM_COUNTS = {
    "fc2": 2,
    "m1.2M": 1_200_000,
    "m11.2M": 11_170_000,
}

DEFAULT_BENCH_CODECS = {
    "none": CodecConfig(lossy="none", lossless="none"),
    "deflate": CodecConfig(lossy="none", lossless="deflate"),
    "qz+deflate": CodecConfig(lossy="qz", lossless="deflate"),
}


def synthetic_params(n_params: int, dtype=np.float32, seed: int = 0, chunk: int = 1 << 20):
    """Gaussian-filled ParameterSet with exactly ``n_params`` entries."""
    if n_params < 1:
        raise InvalidBounds(f"n_params must be >= 1, got {n_params}")
    rng = np.random.default_rng(seed)
    arrays = {}
    remaining, i = n_params, 0
    while remaining > 0:
        n = min(chunk, remaining)
        arrays[f"t{i:03d}"] = rng.standard_normal(n).astype(dtype)
        remaining -= n
        i += 1
    return ParameterSet(arrays)


COMM_COLUMNS = ("payload_bytes", "transport", "trials", "mean_seconds", "std_seconds")


def bench_comm(
    sizes=(1 << 10, 1 << 16, 1 << 20),
    transports=TRANSPORTS,
    trials: int = 10,
    out_path=None,
    spool_dir=None,
) -> list[dict]:
    """Time full two-way model exchanges over a loopback socket.

    Each trial submits a model of the given byte size and receives the
    aggregated global model back, so one round trip moves the payload in
    both directions, the same way a training round would.
    """
    if trials < 1:
        raise InvalidBounds(f"trials must be >= 1, got {trials}")
    for t in transports:
        if t not in TRANSPORTS:
            raise ParseError(f"unknown transport {t!r}; known: {TRANSPORTS}")
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(dir=spool_dir) as tmp:
        for size in sizes:
            params = synthetic_params(max(1, int(size) // 4))
            payload = serialized_size(params)
            for transport in transports:
                connector = FilesystemConnector(Path(tmp) / f"{size}-{transport}")
                connectors = {connector.connector_id: connector}
                # inline_limit 0 forces every body out of band
                limit = 0 if transport == "dataref" else payload + 1024
                agent = ServerAgent(
                    params,
                    make_scheduler("AsyncScheduler", ["bench"], 1, {}),
                    make_aggregator("FedAvgAggregator", {}),
                )
                samples = []
                with SocketServer(
                    agent,
                    connectors=connectors,
                    send_connector=connector if transport == "dataref" else None,
                    inline_limit=limit,
                ) as srv:
                    with Communicator(srv.host, srv.port, connectors=connectors) as com:
                        _, epoch, _, _ = com.fetch_model("bench")
                        for trial in range(trials + 1):  # first one warms up
                            update = ModelUpdate(
                                client_id="bench",
                                params=params,
                                is_delta=False,
                                sample_count=1,
                                local_steps=1,
                                base_epoch=epoch,
                            )
                            t0 = time.perf_counter()
                            _, epoch, _, _ = com.submit_update(
                                update, connector=connector if transport == "dataref" else None,
                                inline_limit=limit,
                            )
                            dt = time.perf_counter() - t0
                            if trial > 0:
                                samples.append(dt)
                rows.append(
                    {
                        "payload_bytes": payload,
                        "transport": transport,
                        "trials": trials,
                        "mean_seconds": statistics.fmean(samples),
                        "std_seconds": statistics.pstdev(samples) if len(samples) > 1 else 0.0,
                    }
                )
    write_table(out_path, COMM_COLUMNS, [[r[c] for c in COMM_COLUMNS] for r in rows])
    return rows


COMPRESS_COLUMNS = (
    "model",
    "codec",
    "original_bytes",
    "compressed_bytes",
    "ratio",
    "compress_seconds",
    "decompress_seconds",
)


def bench_compress(
    param_counts: Optional[dict] = None,
    codecs: Optional[dict] = None,
    out_path=None,
    seed: int = 0,
) -> list[dict]:
    """Compression ratio and timing per (synthetic model, codec) pair."""
    param_counts = dict(param_counts or DEFAULT_BENCH_PARAM_COUNTS)
    codecs = dict(codecs or DEFAULT_BENCH_CODECS)
    rows: list[dict] = []
    for model_name, count in param_counts.items():
        params = synthetic_params(int(count), seed=seed)
        original = serialized_size(params)
        for codec_name, codec in codecs.items():
            t0 = time.perf_counter()
            blob = compress_params(params, codec)
            t1 = time.perf_counter()
            decompress_params(blob)
            t2 = time.perf_counter()
            rows.append(
                {
                    "model": model_name,
                    "codec": codec_name,
                    "original_bytes": original,
                    "compressed_bytes": len(blob),
                    "ratio": original / len(blob),
                    "compress_seconds": t1 - t0,
                    "decompress_seconds": t2 - t1,
                }
            )
    write_table(out_path, COMPRESS_COLUMNS, [[r[c] for c in COMPRESS_COLUMNS] for r in rows])
    return rows


def report_utilization(source, out_dir=None) -> UtilizationReport:
    """Re-run the simulation described by a config and tabulate client usage.

    ``source`` is either a run directory (holding ``config.yaml``) or a
    config file path.  Writes ``utilization.csv`` and ``gantt.csv``.
    """
    source = Path(source)
    cfg_path = source / "config.yaml" if source.is_dir() else source
    if not cfg_path.exists():
        raise ParseError(f"no config found at {cfg_path}")
    result = run_simulation(build_scenario(load_config(cfg_path)))
    report = result.utilization
    if out_dir is None:
        out_dir = source if source.is_dir() else source.parent
    report.write_tables(out_dir)
    return report
