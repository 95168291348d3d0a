"""The thread counts of the OpenBLAS pools loaded in this process.

numpy and scipy each load their own OpenBLAS, numpy's built with 64-bit
integers, and each library keeps a thread pool as wide as the machine.
rfom2's matrices are tens of columns wide, where threading them costs
more than it saves, and with both pools threaded the two contend for the
same cores. `one_thread_per_caller` sets every pool to one thread for the
length of a run, so each thread that calls BLAS runs it alone.
"""

import contextlib
import ctypes
import functools
import os

# the variables OpenBLAS takes its thread count from when it loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (getter, setter) of numpy's library and of scipy's
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"))


@functools.cache
def openblas_pools():
    """A tuple of (get, set) of each loaded OpenBLAS that exports one of the
    symbol pairs above, found through /proc/self/maps; empty where there is
    none (another BLAS, another platform). Probed once per process: both
    libraries are loaded by the time `rfom2` is, since `rfom2.engines`
    imports scipy.linalg, and a later call returns the same handles."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                pools.append((get, set_))
                break
    return tuple(pools)


@contextlib.contextmanager
def one_thread_per_caller():
    """Set every loaded OpenBLAS pool to one thread, and on exit, an exit
    by exception included, back to the count it had. Yields whether every
    loaded pool now reads one thread: False when no pool is found. Also a
    decorator.

    A count set in the environment (`THREAD_VARS`) wins: then no pool is
    changed. The counts are process-wide: a thread that calls BLAS while
    another enters or leaves the scope runs at either count.
    """
    pools = openblas_pools()
    pinned = [] if any(os.environ.get(var) for var in THREAD_VARS) else pools
    before = [get() for get, _ in pinned]
    for _, set_ in pinned:
        set_(1)
    try:
        yield bool(pools) and all(get() == 1 for get, _ in pools)
    finally:
        for (_, set_), count in zip(pinned, before):
            set_(count)
