"""BLAS's thread count, and the one way pooled work fills an array.

OpenBLAS may split one product over threads of its own, and the split can
change a product's rounding.  ``ONE_THREAD`` is a scope in which every
loaded OpenBLAS runs on one thread, so what runs inside it gives the same
bytes whatever OPENBLAS_NUM_THREADS says.  :func:`fill` runs fixed blocks
through an order-preserving map inside that scope, each block writing its
own slice, so what it fills depends neither on the map nor on BLAS's thread
count.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from pathlib import Path

# The thread-count calls of an OpenBLAS: numpy's and scipy's wheels rename
# them (scipy_openblas_..., with 64_ for 64-bit integers), other builds do not.
_THREAD_CALLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


@functools.cache
def thread_calls() -> list:
    """(get, set) of the thread count of every OpenBLAS this process has
    loaded; none where no OpenBLAS is loaded or /proc/self/maps is absent."""
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    paths = sorted({line.split(None, 5)[-1] for line in lines if "openblas" in line})
    libs = [ctypes.CDLL(path) for path in paths if Path(path).is_file()]
    calls = [
        (getattr(lib, get), getattr(lib, set_)) for lib in libs for get, set_ in _THREAD_CALLS if hasattr(lib, set_)
    ]
    for get, set_ in calls:
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
    return calls


class _OneThread:
    """A scope in which every loaded OpenBLAS runs on one thread.  The count is
    process-wide, so open scopes are counted: the first to open saves the
    counts and sets them to 1, and the last to close restores them."""

    _lock = threading.Lock()
    _open = 0
    _saved = []

    def __enter__(self):
        with self._lock:
            if not self._open:
                self._saved = [(set_, get()) for get, set_ in thread_calls()]
                for set_, _ in self._saved:
                    set_(1)
            self._open += 1

    def __exit__(self, *exc):
        with self._lock:
            self._open -= 1
            if not self._open:
                for set_, count in self._saved:
                    set_(count)


ONE_THREAD = _OneThread()


def fill(map, fn, n: int, size: int = 1) -> None:
    """Call fn(rows) for the slices of range(n) in order, each ``size`` long
    but the last, through the order-preserving ``map``, with BLAS on one
    thread.  The blocks are fixed whatever the map, and each call writes only
    its own rows of a preallocated output, so the output's bytes depend
    neither on the map nor on BLAS's thread count.  A lazy map is run to its
    end."""
    with ONE_THREAD:
        for _ in map(fn, [slice(start, min(start + size, n)) for start in range(0, n, size)]):
            pass
