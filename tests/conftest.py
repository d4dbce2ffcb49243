import threading

import numpy as np
import pytest

from fedkit.params import serialize_params
from fedkit.wire import FilesystemConnector


def _check_owned(make, *inputs):
    """Call ``make()`` and check the parameter set it returns owns its tensors.

    Every tensor must be read-only and C-contiguous, share no memory with any
    tensor of ``inputs``, and the inputs must be bit-unchanged afterwards.
    """
    before = [serialize_params(p) for p in inputs]
    out = make()
    for name, a in out.items():
        assert not a.flags.writeable, name
        assert a.flags.c_contiguous, name
        for p in inputs:
            for other_name, b in p.items():
                assert not np.shares_memory(a, b), (name, other_name)
    assert [serialize_params(p) for p in inputs] == before
    return out


@pytest.fixture
def check_owned():
    return _check_owned


@pytest.fixture
def no_thread_left():
    """Fails the test if it leaves a thread running that it started."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture
def conn(request, tmp_path):
    """A staging spool in a fresh directory, parametrized indirectly by its connector id.

    The id is the one the test ids carry, as in ``[fs]``.
    """
    return FilesystemConnector(tmp_path / "spool", connector_id=request.param)
