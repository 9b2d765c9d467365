"""Pin numpy's bundled OpenBLAS to one thread when kgdta is imported.

A threaded BLAS may split a product differently at another thread count and sum
in another order, so checkpoints and reports are byte-identical only at one fixed
count; and the downstream grid runs one fit per core, where threaded BLAS would
oversubscribe the machine. numpy wheels ship OpenBLAS under `numpy.libs/` with
`scipy_openblas_*64_` entry points, so the pin needs no extra package and no
environment variable set before numpy loads. Any other BLAS is left as it is.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def _bundled_openblas() -> ctypes.CDLL | None:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        return lib
    return None


_OPENBLAS = _bundled_openblas()
if _OPENBLAS is not None:
    _OPENBLAS.scipy_openblas_set_num_threads64_(1)


def threads() -> int | None:
    """The bundled OpenBLAS's thread count, or None when numpy uses another BLAS."""
    return None if _OPENBLAS is None else int(_OPENBLAS.scipy_openblas_get_num_threads64_())
