"""Benchmark helpers: synthetic models and the utilization report.

``synthetic_params`` builds a Gaussian model of a given size for codec and
size experiments.  ``report_utilization`` re-simulates a config to tabulate
client usage; the timed benchmark harness is ``perfbench/``.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import build_scenario, load_config
from .errors import InvalidBounds, ParseError
from .params import ParameterSet
from .sim import UtilizationReport, run_simulation


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


def report_utilization(source, out_dir=None) -> UtilizationReport:
    """Re-run the simulation described by a config and tabulate client usage.

    ``source`` is either a run directory (holding ``config.yaml``) or a
    config file path.  Writes ``utilization.csv`` and ``gantt.csv``.  For a
    socket run's directory this is the simulated schedule of its config, not
    a measurement of what the run did.
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
