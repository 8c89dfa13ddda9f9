"""Print the environment the benchmark ran in as one JSON object.

    PYTHONPATH=src python3 perfbench/envinfo.py

Records `nproc`, the Python, numpy, scipy and thermodeco versions, and the
OpenBLAS build numpy loaded with its default thread count.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

import numpy
import scipy

import thermodeco


def openblas() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                return info
    return info


if __name__ == "__main__":
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thermodeco": thermodeco.__version__,
        "openblas": openblas(),
    }))
