"""Scoped one-thread limit for the OpenBLAS builds that numpy and scipy load.

The tomography fit (one 256x256 eigendecomposition, then per interior-point
iteration a 114x256 congruence and Gram product and a few 114x114 solves)
rounds differently on two threads: on 2 vCPUs, two OpenBLAS threads changed
the fitted chi's bits on four datasets, and were no faster.  So the fit runs
on one thread, whatever the caller's setting.  The
limit holds only inside `single_thread()`; the caller's counts come back on
exit.  Where no OpenBLAS is loaded (another OS, MKL) it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

# openblas_{get,set}_num_threads as exported by scipy-openblas (numpy's
# ILP64 build carries the 64_ suffix, scipy's does not) and by plain OpenBLAS
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
            "openblas_{}_num_threads64_", "openblas_{}_num_threads")

# the thread count is process-wide, so nested and concurrent blocks share one
# limit: the first to enter saves the counts, the last to leave restores them
_lock = threading.Lock()
_depth = 0
_saved: list = []


@functools.cache
def _libraries() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SYMBOLS:
            get_threads = getattr(lib, name.format("get"), None)
            set_threads = getattr(lib, name.format("set"), None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                found.append((get_threads, set_threads))
                break
    return tuple(found)


@contextmanager
def single_thread():
    """Run the block with every loaded OpenBLAS on one thread."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_threads, get_threads())
                      for get_threads, set_threads in _libraries()]
            for set_threads, _ in _saved:
                set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_threads, n in _saved:
                    set_threads(n)
