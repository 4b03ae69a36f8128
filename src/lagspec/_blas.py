"""The thread count of the OpenBLAS that numpy's wheel bundles, read and
set through ctypes.

numpy's wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_-*.so``
(``numpy/.dylibs`` on macOS), which exports
``scipy_openblas_{get,set}_num_threads64_``.  The count is process-wide.
The library is looked up on first use, not at import, and only if it is
already loaded; with another BLAS, or where the functions are missing,
``thread_count`` returns None and nothing is pinned.
"""
from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


@functools.cache
def _functions() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set functions of numpy's loaded OpenBLAS, or None."""
    import numpy

    root = Path(numpy.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:
            # RTLD_NOLOAD: only the copy numpy already loaded, never a second
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
            get, set_ = getattr(lib, _GET), getattr(lib, _SET)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def thread_count() -> int | None:
    """OpenBLAS's current thread count, or None if it cannot be read."""
    functions = _functions()
    return None if functions is None else int(functions[0]())


@contextmanager
def threads(count: int) -> Iterator[None]:
    """Run the block with OpenBLAS at ``count`` threads and restore the
    previous count on exit, also when the block raises.  Raises
    RuntimeError where ``thread_count`` is None."""
    functions = _functions()
    if functions is None:
        raise RuntimeError("numpy's bundled OpenBLAS was not found")
    get, set_ = functions
    previous = get()
    set_(int(count))
    try:
        yield
    finally:
        set_(previous)
