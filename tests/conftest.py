"""Tests marked `one_blas_thread` run with one BLAS thread.

OpenBLAS's threaded complex getrs rounds differently from its serial one,
so a bit-for-bit comparison against a getrs-based reference only holds
with one BLAS thread. The thread count is read once, when BLAS loads, so
such a test runs as its own pytest node in a child interpreter with every
BLAS thread variable set to 1, unless this interpreter already has them;
its outcome is the child's.

The `traced_peak` fixture measures a call's peak of traced memory.
"""

import os
import subprocess
import sys
import tracemalloc

import pytest

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "one_blas_thread: run the test with every BLAS thread variable set to 1")


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    if pyfuncitem.get_closest_marker("one_blas_thread") is None \
            or all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS):
        return None
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", pyfuncitem.nodeid],
        cwd=pyfuncitem.config.rootpath, env=env, capture_output=True, text=True)
    if child.returncode != 0:
        pytest.fail(f"failed with one BLAS thread:\n{child.stdout}{child.stderr}", pytrace=False)
    return True


def _traced_peak(fun, *args):
    """The peak of tracemalloc's traced memory during fun(*args), above what
    was traced when it started, in bytes."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fun(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
