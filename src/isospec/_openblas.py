"""Direct calls into the OpenBLAS that numpy's wheels bundle.

numpy has no runtime control of its BLAS threads, no in-place QR, no
way to apply Householder reflectors without forming Q and no BLAS call
that accumulates into a block of an array in place; all of these are
reached here through the OpenBLAS copy in numpy.libs, which numpy has
already loaded. The library is looked up once, at first use and never
at import. Its 64-bit integer build exports `scipy_*64_` symbols and its
32-bit build `scipy_*` ones, and each build's integers get their own
ctypes width. Where numpy bundles no OpenBLAS, or a copy that lacks one
of the routines below (another BLAS, or another layout of the wheel),
`found()` is False, and callers keep numpy's own routines.
"""

import contextlib
import ctypes
import functools
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# (thread-count entry points, routines, integer) per build, the names as
# format strings of "get"/"set" and of the routine.
_BUILDS = (
    ("scipy_openblas_{}_num_threads64_", "scipy_{}_64_", ctypes.c_int64),
    ("scipy_openblas_{}_num_threads", "scipy_{}_", ctypes.c_int32),
)
# The Fortran arguments of each routine, all by reference: c a one-letter
# option, i an integer, d a double, a an array. The LAPACK routines that
# report an error add INFO (i). The hidden lengths of the options follow.
_SIGNATURES = {
    "dgeqrf": "iiaiaai",  # M, N, A, LDA, TAU, WORK, LWORK
    "dormqr": "cciiiaiaaiai",  # SIDE, TRANS, M, N, K, A, LDA, TAU, C, LDC, WORK, LWORK
    "dlarft": "cciiaiaai",  # DIRECT, STOREV, N, K, V, LDV, TAU, T, LDT
    "dgemm": "cciiidaiaidai",  # TRANSA, TRANSB, M, N, K, ALPHA, A, LDA, B, LDB, BETA, C, LDC
    "dsymm": "cciidaiaidai",  # SIDE, UPLO, M, N, ALPHA, A, LDA, B, LDB, BETA, C, LDC
    "dsyr2k": "cciidaiaidai",  # UPLO, TRANS, N, K, ALPHA, A, LDA, B, LDB, BETA, C, LDC
    "dtrmm": "cccciidaiai",  # SIDE, UPLO, TRANSA, DIAG, M, N, ALPHA, A, LDA, B, LDB
}
_WITH_INFO = ("dgeqrf", "dormqr")


@functools.cache
def _library() -> SimpleNamespace | None:
    """The entry points of numpy's bundled OpenBLAS, typed; None if absent."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for threads, routine, c_int in _BUILDS:
            names = {"get": threads.format("get"), "put": threads.format("set")}
            names.update((name, routine.format(name)) for name in _SIGNATURES)
            if not all(hasattr(lib, symbol) for symbol in names.values()):
                continue
            entry = {key: getattr(lib, symbol) for key, symbol in names.items()}
            entry["get"].argtypes, entry["get"].restype = (), ctypes.c_int
            entry["put"].argtypes, entry["put"].restype = (ctypes.c_int,), None
            kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(c_int),
                     "d": ctypes.POINTER(ctypes.c_double), "a": ctypes.c_void_p}
            for name, signature in _SIGNATURES.items():
                info = "i" if name in _WITH_INFO else ""
                entry[name].argtypes = [kinds[k] for k in signature + info] + [
                    ctypes.c_size_t] * signature.count("c")
                entry[name].restype = None
            return SimpleNamespace(c_int=c_int, **entry)
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


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with numpy's bundled OpenBLAS at `n` threads, and give
    it back the count it had on every way out, an exception included. The
    count is the process's, so every thread's BLAS calls run at `n`. Where
    found() is False this does nothing."""
    lib = _library()
    if lib is None:
        yield
        return
    before = lib.get()
    lib.put(n)
    try:
        yield
    finally:
        lib.put(before)


def _call(name: str, *args) -> None:
    """Routine `name` on `args`: options go as bytes, ints and floats by
    reference, arrays as their data pointers; INFO and the options'
    hidden lengths are added. ctypes releases the GIL for the call."""
    lib = _library()
    if len(args) != len(_SIGNATURES[name]):
        raise TypeError(f"{name} takes {len(_SIGNATURES[name])} arguments")
    refs = [a if isinstance(a, bytes) else
            ctypes.byref(lib.c_int(a)) if isinstance(a, int) else
            ctypes.byref(ctypes.c_double(a)) if isinstance(a, float) else a.ctypes.data
            for a in args]
    info = lib.c_int(0)
    if name in _WITH_INFO:
        refs.append(ctypes.byref(info))
    getattr(lib, name)(*refs, *[1] * _SIGNATURES[name].count("c"))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{name}: info = {info.value}")


def lwork(m: int) -> int:
    """A work-array size that serves each routine below that takes one, at
    order m: the largest that an LWORK = -1 query asks for, of dgeqrf on
    an m x m matrix and of dormqr on an m x m matrix and on a vector.
    Their queries grow with the columns, so it also serves fewer than m
    of them. More work than a routine asks for changes neither its
    blocking nor its bits, so one array can serve them all."""
    query, dummy = np.zeros(1), np.zeros(1)
    sizes = [m]
    _call("dgeqrf", m, m, dummy, m, dummy, query, -1)
    sizes.append(int(query[0]))
    for cols in (m, 1):
        _call("dormqr", b"L", b"N", m, cols, m, dummy, m, dummy, dummy, m, query, -1)
        sizes.append(int(query[0]))
    return max(sizes)


def _columns(a: np.ndarray, writeable: bool = False) -> int:
    """The leading dimension of `a`, a float64 matrix stored by columns:
    a Fortran-ordered array or a block of one."""
    if a.dtype != np.float64 or a.ndim != 2 or (writeable and not a.flags.writeable):
        raise ValueError("need a " + ("writeable " if writeable else "") + "float64 matrix")
    rows, cols = a.shape
    ld = a.strides[1] // 8 if cols > 1 else max(1, rows)
    if (rows > 1 and a.strides[0] != 8) or (cols > 1 and (a.strides[1] % 8 or ld < rows)):
        raise ValueError("need a matrix stored by columns (Fortran-ordered)")
    return max(1, ld)


def _square(a: np.ndarray, writeable: bool = False) -> tuple:
    """(order, leading dimension) of the square matrix `a` stored by
    columns."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square float64 matrix")
    return a.shape[0], _columns(a, writeable)


def _tall(a: np.ndarray) -> tuple:
    """(rows, columns, leading dimension) of the writeable matrix `a`
    stored by columns, with no more columns than rows."""
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError("need a float64 matrix with no more columns than rows")
    return (*a.shape, _columns(a, writeable=True))


def _tau_and_work(m: int, tau: np.ndarray, work: np.ndarray) -> None:
    if tau.shape != (m,) or tau.dtype != np.float64:
        raise ValueError("need one float64 tau per column")
    if work.ndim != 1 or work.dtype != np.float64 or not work.flags.c_contiguous:
        raise ValueError("need a contiguous float64 work array")


def dgeqrf(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Householder QR of the m x n matrix `a` (m >= n), stored by columns,
    in place, as numpy's QR runs it: R on and above the diagonal, the
    reflectors below it. Returns their scalar factors tau. `work` is
    scratch of at least lwork(m) doubles."""
    m, n, lda = _tall(a)
    tau = np.zeros(n)
    _tau_and_work(n, tau, work)
    _call("dgeqrf", m, n, a, lda, tau, work, work.size)
    return tau


def dormqr(a: np.ndarray, tau: np.ndarray, c: np.ndarray, work: np.ndarray) -> None:
    """c <- Q c in place, where Q = H_1 ... H_m is the product of the
    reflectors that dgeqrf left below the diagonal of `a` and in `tau`,
    without forming Q. `c` is a matrix stored by columns or a vector, with
    m rows."""
    m, lda = _square(a)
    _tau_and_work(m, tau, work)
    view = c[:, None] if c.ndim == 1 else c
    ldc = _columns(view, writeable=True)
    rows, cols = view.shape
    if rows != m:
        raise ValueError(f"c of shape {c.shape} does not meet Q of order {m}")
    _call("dormqr", b"L", b"N", rows, cols, m, a, lda, tau, view, ldc, work, work.size)


def _op(trans: str, a: np.ndarray) -> tuple:
    if trans not in ("N", "T"):
        raise ValueError("trans is N or T")
    return a.shape[::-1] if trans == "T" else a.shape


def dlarft(v: np.ndarray, tau: np.ndarray, t: np.ndarray) -> None:
    """t <- the upper triangular T with H_1 ... H_k = I - V T V^T, for
    the k reflectors stored below the unit diagonal of the n x k block v
    (forward, by columns, as dgeqrf leaves them; only v's part below its
    diagonal is read)."""
    n, k = v.shape
    if n < k or tau.shape != (k,) or tau.dtype != np.float64 or t.shape != (k, k):
        raise ValueError(f"need v with rows >= columns, one tau per column and t of {k} x {k}")
    _call("dlarft", b"F", b"C", n, k, v, _columns(v), tau, t, _columns(t, writeable=True))


def dgemm(transa: str, transb: str, alpha: float, a: np.ndarray, b: np.ndarray,
          beta: float, c: np.ndarray) -> None:
    """c <- alpha op(a) op(b) + beta c in place, op(x) being x ("N") or
    x^T ("T")."""
    (m, k), (kb, n) = _op(transa, a), _op(transb, b)
    if kb != k or c.shape != (m, n):
        raise ValueError(f"shapes {a.shape}, {b.shape} and {c.shape} do not meet")
    _call("dgemm", transa.encode(), transb.encode(), m, n, k, float(alpha), a, _columns(a),
          b, _columns(b), float(beta), c, _columns(c, writeable=True))


def dsymm(alpha: float, a: np.ndarray, b: np.ndarray, beta: float, c: np.ndarray) -> None:
    """c <- alpha a b + beta c in place for a symmetric a, of which only
    the upper triangle is read."""
    m, n = b.shape
    if a.shape != (m, m) or c.shape != (m, n):
        raise ValueError(f"shapes {a.shape}, {b.shape} and {c.shape} do not meet")
    _call("dsymm", b"L", b"U", m, n, float(alpha), a, _columns(a), b, _columns(b),
          float(beta), c, _columns(c, writeable=True))


def dsyr2k(alpha: float, a: np.ndarray, b: np.ndarray, beta: float, c: np.ndarray) -> None:
    """The upper triangle of c <- alpha (a b^T + b a^T) + beta c, in
    place; the lower triangle is neither read nor written."""
    n, k = a.shape
    if b.shape != (n, k) or c.shape != (n, n):
        raise ValueError(f"shapes {a.shape}, {b.shape} and {c.shape} do not meet")
    _call("dsyr2k", b"U", b"N", n, k, float(alpha), a, _columns(a), b, _columns(b),
          float(beta), c, _columns(c, writeable=True))


def dtrmm(side: str, transa: str, alpha: float, a: np.ndarray, b: np.ndarray) -> None:
    """b <- alpha op(a) b ("L") or alpha b op(a) ("R") in place, for a
    triangular a of which only the upper triangle is read."""
    m, n = b.shape
    order = m if side == "L" else n
    _op(transa, a)
    if side not in ("L", "R") or a.shape != (order, order):
        raise ValueError(f"shapes {a.shape} and {b.shape} do not meet from {side}")
    _call("dtrmm", side.encode(), b"U", transa.encode(), b"N", m, n, float(alpha),
          a, _columns(a), b, _columns(b, writeable=True))
