"""Direct calls into the OpenBLAS that numpy's wheels bundle.

numpy has no runtime control of its BLAS threads and no in-place QR;
both are reached here through the OpenBLAS copy in numpy.libs, which
numpy has already loaded. The library is looked up once, at first use
and never at import. Its 64-bit integer build exports `scipy_*64_`
symbols and its 32-bit build `scipy_*` ones, and each build's LAPACK
integers get their own ctypes width. Where numpy bundles no OpenBLAS
(another BLAS, or another layout of the wheel) `found()` is False, and
callers keep numpy's own routines.
"""

import ctypes
import functools
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# (thread-count entry points, LAPACK routines, LAPACK integer) per build,
# the names as format strings of "get"/"set" and of the routine.
_BUILDS = (
    ("scipy_openblas_{}_num_threads64_", "scipy_{}_64_", ctypes.c_int64),
    ("scipy_openblas_{}_num_threads", "scipy_{}_", ctypes.c_int32),
)


@functools.cache
def _library() -> SimpleNamespace | None:
    """The entry points of numpy's bundled OpenBLAS, typed; None if absent."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for threads, lapack, c_int in _BUILDS:
            names = (threads.format("get"), threads.format("set"),
                     lapack.format("dgeqrf"), lapack.format("dorgqr"))
            if not all(hasattr(lib, name) for name in names):
                continue
            get, put, geqrf, orgqr = (getattr(lib, name) for name in names)
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            n, p = ctypes.POINTER(c_int), ctypes.c_void_p
            # dgeqrf(M, N, A, LDA, TAU, WORK, LWORK, INFO) and
            # dorgqr(M, N, K, A, LDA, TAU, WORK, LWORK, INFO)
            geqrf.argtypes, geqrf.restype = (n, n, p, n, p, p, n, n), None
            orgqr.argtypes, orgqr.restype = (n, n, n, p, n, p, p, n, n), None
            return SimpleNamespace(get=get, put=put, dgeqrf=geqrf, dorgqr=orgqr, c_int=c_int)
    return None


def found() -> bool:
    """Whether numpy's bundled OpenBLAS was found."""
    return _library() is not None


def split_threads(workers: int) -> None:
    """Give this process 1/workers of the BLAS threads it has.

    A forked worker keeps the parent's BLAS thread count, so `workers`
    workers would each run that many BLAS threads on the same CPUs: at
    M = 784 with the default threads, a 2-worker sweep took 99 s without
    this split and 46 s with it, where one process took 38 s. Any BLAS
    but numpy's bundled OpenBLAS keeps its thread count.
    """
    lib = _library()
    if lib is not None:
        lib.put(max(1, lib.get() // workers))


def _run(name: str, n: int, *args) -> None:
    """LAPACK routine `name` on `args` plus the work array numpy's QR
    gives it: the size an LWORK = -1 query asks for, but at least n. Ints
    go by reference and arrays as their data pointers; ctypes releases
    the GIL for each call."""
    lib = _library()
    routine = getattr(lib, name)

    def call(*tail):
        info = lib.c_int(0)
        refs = [ctypes.byref(lib.c_int(a)) if isinstance(a, int) else a.ctypes.data
                for a in args + tail]
        routine(*refs, ctypes.byref(info))
        if info.value != 0:
            raise np.linalg.LinAlgError(f"{name}: info = {info.value}")

    query = np.zeros(1)
    call(query, -1)
    work = np.empty(max(1, n, int(query[0])))
    call(work, work.size)


def _square_fortran(a: np.ndarray) -> int:
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square float64 matrix")
    if not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("need a writeable Fortran-ordered matrix")
    return a.shape[0]


def dgeqrf(a: np.ndarray) -> np.ndarray:
    """Householder QR of the square Fortran-ordered `a` in place, as
    numpy's QR runs it: R on and above the diagonal, the reflectors
    below it. Returns their scalar factors tau."""
    m = _square_fortran(a)
    tau = np.zeros(m)
    _run("dgeqrf", m, m, m, a, m, tau)
    return tau


def dorgqr(a: np.ndarray, tau: np.ndarray) -> None:
    """Overwrite dgeqrf's output `a` with the orthogonal factor Q its
    reflectors form, as numpy's QR forms it."""
    m = _square_fortran(a)
    if tau.shape != (m,) or tau.dtype != np.float64:
        raise ValueError("need one float64 tau per column")
    _run("dorgqr", m, m, m, m, a, m, tau)
