"""The BLAS library numpy was built against and its thread setting."""

from __future__ import annotations

import ctypes
import glob
import os

_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def _threads(numpy) -> int | None:
    """Ask the OpenBLAS bundled with numpy for its thread count; None if
    there is none to ask."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*blas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_info(numpy) -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        library = "unknown"
    return {
        "library": library,
        "threads": _threads(numpy),
        "thread_env": {k: os.environ[k] for k in _ENV if k in os.environ},
    }
