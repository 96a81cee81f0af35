"""The numpy/BLAS build a test ran on, for the messages of digest failures.

Golden digests are recorded on one build (see ``test_golden_outputs.py``):
another numpy, or another OpenBLAS kernel, can move the last bits of an
eigenvalue and so a printed 17-digit value.  A failing digest names the
build, so a build difference can be told from a program fault.  Only the
stdlib and ``ctypes`` are used.
"""

import ctypes
import pathlib
import platform

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath


def openblas_core() -> str:
    """The kernel the OpenBLAS bundled with numpy chose for this CPU when it
    loaded, such as SkylakeX (or the one ``OPENBLAS_CORETYPE`` forced);
    "unknown" where numpy bundles no scipy-openblas library."""
    for path in sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def build_fingerprint() -> str:
    """numpy and Python versions, numpy's dispatched SIMD features and the
    OpenBLAS core, on one line."""
    found = [feature for feature in _multiarray_umath.__cpu_dispatch__
             if _multiarray_umath.__cpu_features__.get(feature)]
    return (f"build: numpy {np.__version__}, Python {platform.python_version()}, "
            f"SIMD {' '.join(found) or 'baseline only'}, OpenBLAS core {openblas_core()}")
