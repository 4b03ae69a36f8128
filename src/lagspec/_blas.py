"""The thread count of the OpenBLAS that numpy's wheel bundles, read and
set through ctypes, and the LAPACK routines of its symmetric eigensolver.

numpy's wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_-*.so``
(``numpy/.dylibs`` on macOS), which exports
``scipy_openblas_{get,set}_num_threads64_``.  The count is process-wide.
The library is looked up on first use, not at import, and only if it is
already loaded; with another BLAS, or where the functions are missing,
``thread_count`` returns None and nothing is pinned.

The same library exports LAPACK with 64-bit integers.  ``np.linalg.eigh``
calls its ``dsyevd``, which runs three stages: ``dsytrd`` reduces D to a
tridiagonal matrix in D's own storage, ``dstedc`` solves that into a
separate matrix Z, and ``dormtr`` turns Z into D's eigenvectors.
``lapack`` gives those three, so that a caller can run dsyevd's
arithmetic on buffers of its own.  Each takes gfortran's hidden string
lengths last, and releases the GIL.
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
# dsyevd's three stages, in the order it calls them, and the kinds of their
# arguments: c a character, i a pointer to an integer, p to an array, and n
# a character's hidden length
STAGES = ("sytrd", "stedc", "ormtr")
_SIGNATURES = ("cipippppiin", "cipppipipiin", "ccciipippipiinnn")


@functools.cache
def _functions() -> tuple[Callable[[], int], Callable[[int], None], tuple | None] | None:
    """The get and set functions of numpy's loaded OpenBLAS and its
    ``STAGES`` (None where one is missing), or None."""
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
        try:
            stages = tuple(getattr(lib, f"scipy_d{name}_64_") for name in STAGES)
        except AttributeError:
            stages = None
        else:
            types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64),
                     "p": ctypes.c_void_p, "n": ctypes.c_size_t}
            for stage, signature in zip(stages, _SIGNATURES):
                stage.argtypes = [types[kind] for kind in signature]
                stage.restype = None
        return get, set_, stages
    return None


def lapack() -> tuple | None:
    """The ``STAGES`` of ``np.linalg.eigh``'s ``dsyevd``, or None."""
    functions = _functions()
    return None if functions is None else functions[2]


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
    get, set_, _ = functions
    previous = get()
    set_(int(count))
    try:
        yield
    finally:
        set_(previous)
