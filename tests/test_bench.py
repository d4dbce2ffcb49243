"""Benchmark helpers: synthetic models."""
import numpy as np
import pytest

from fedkit.bench import synthetic_params
from fedkit.errors import InvalidBounds


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

