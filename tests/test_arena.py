"""Importing fedkit caps glibc's malloc at one arena, unless the user set a cap.

Each case runs in a fresh interpreter: the cap is process-wide and set once,
when ``fedkit.params`` is imported.  Four threads each allocate a 64 KiB
array (below glibc's mmap threshold, so from an arena) while all four are
alive, and ``malloc_info`` then lists the process's arenas as ``<heap nr=``
elements.
"""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import ctypes, os, sys, tempfile, threading

if sys.argv[1] == "fedkit":
    import fedkit.params  # noqa: F401
import numpy as np

barrier = threading.Barrier(4)
keep = []


def work():
    barrier.wait()
    keep.append(np.ones(8192))


threads = [threading.Thread(target=work) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
libc = ctypes.CDLL(None)
libc.fopen.argtypes, libc.fopen.restype = (ctypes.c_char_p, ctypes.c_char_p), ctypes.c_void_p
libc.fclose.argtypes, libc.fclose.restype = (ctypes.c_void_p,), ctypes.c_int
libc.malloc_info.argtypes, libc.malloc_info.restype = (ctypes.c_int, ctypes.c_void_p), ctypes.c_int
fd, path = tempfile.mkstemp()
os.close(fd)
try:
    fp = libc.fopen(path.encode(), b"w")
    assert fp and libc.malloc_info(0, fp) == 0
    libc.fclose(fp)
    with open(path) as fh:
        print(fh.read().count("<heap nr="))
finally:
    os.unlink(path)
"""

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="arenas and malloc_info are glibc's"
)


def arenas(imports: str, **env) -> int:
    environ = {k: v for k, v in os.environ.items() if k not in ("MALLOC_ARENA_MAX", "GLIBC_TUNABLES")}
    environ.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, imports],
        env=environ, capture_output=True, text=True, timeout=60, check=True,
    )
    return int(out.stdout)


def test_threads_share_one_arena_once_fedkit_is_imported():
    assert arenas("fedkit") == 1


def test_without_fedkit_each_thread_gets_its_own_arena():
    # the probe can see the arenas that the cap removes
    assert arenas("numpy") > 1


@pytest.mark.parametrize(
    "env", [{"MALLOC_ARENA_MAX": "3"}, {"GLIBC_TUNABLES": "glibc.malloc.arena_max=3"}]
)
def test_a_cap_the_user_set_wins(env):
    assert arenas("fedkit", **env) == 3
