"""Benchmark helpers: synthetic models for codec and size experiments.

``synthetic_params`` builds a Gaussian model with exactly a given number of
entries; the timed benchmark harness is ``perfbench/``.  A run's
utilization tables come from the run itself: ``fedkit simulate`` prints
them and ``simulate --run-dir`` writes them (``runner.write_run_dir``).
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidBounds
from .params import ParameterSet


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

