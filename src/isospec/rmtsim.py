"""Finite-width random network simulator.

Networks have square Haar-orthogonal weight matrices scaled by sigma and
piecewise-linear activations; the output is the last preactivation. The
central object measured here is the dual conditional Fisher information

    H_L = (1/M) (df/dtheta)(df/dtheta)^T
        = sum_l q_hat_{l-1} delta_{L->l} delta_{L->l}^T,

built by the layer recursion H_{l+1} = q_hat_l I + W_{l+1} D_l H_l D_l
W_{l+1}^T (starting from H_1 = q_hat_0 I). The one forward loop,
_forward_layers, runs one input or a batch (trainlab's sweep steps
through it too). The recursion consumes it one layer at a time, so a
network draw can be streamed through it without ever holding more than
two weights.

Every activation here has |phi'| in {0, c}, so each step keeps H =
a I + V T V^T: a is the top atom, and V, orthonormal, has one column per
unit dead so far. The recursion updates (a, V, T) in O(M^2 n) per layer
for n columns (_low_rank_step), and H's eigenvalues are M - n copies of
a and a + eig(T), so no M x M eigensolve is needed. Once V would have
more than LOW_RANK_SHARE M columns, or the live units' |d_i| differ, H is
formed and every later step conjugates it densely (_fim_step). One worker
thread overlaps the caller: it factors layer l + 1's Gaussian while the
caller takes layer l's low-rank step, and once H is dense it conjugates
layer l in H's own buffer while the caller draws layer l + 1. BLAS runs
at one thread throughout, so the two threads share the cores.

A Haar draw is Q diag(s) from the QR of one Gaussian, Q R: Q is the
product of the Householder reflectors and s_i the sign bit of r_ii, +-1
even where r_ii is 0, so each draw reads exactly one Gaussian. Every
explicit Q (sample_haar_orthogonal) is numpy's QR. Simulate's two models
never form Q: each of their draws is factored in its own M x M buffer by
dgeqrf, the LAPACK routine numpy's QR calls, reached in numpy's bundled
OpenBLAS (see _openblas), and stays as its reflectors, checked on them
in O(M^2) as it is drawn (_householder_layers). They are applied to V
by one dormqr, to a dense H by blocks of TILE of them
(_reflect_both_sides), and to the network's forward pass by dormqr. So
a draw needs no dorgqr, no Gram check and no full M x M product.
np.linalg.qr and the dense path are the fallback where that library is
not found; there every step conjugates D H D by an explicit W, and
the atoms model's draws go unchecked, since a Gram check costs O(M^3)
a layer. Weights passed in keep the dense path and its full Gram
check, formed in bands.
Empirical spectral measures feed the comparison against the
free-probability predictions.
"""

import contextlib
import contextvars
import math
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .freeconv import LayerSchedule
from .meanfield import ActivationSpec, layer_sigmas
from .specmeasure import GridDensity, NumericalError, SpectralMeasure, check_bin_width

ORTHO_TOL = 1e-10
# The recursion keeps H = a I + V T V^T while V has at most this share of
# M columns. At M = 1000 and one BLAS thread a low-rank step takes 11, 25,
# 44, 59 and 80 ms at 100, 250, 400, 500 and 600 columns, on the caller,
# beside 14 ms of drawing, while the worker's dgeqrf takes 30 ms. A dense
# step takes 50 ms on the worker while the caller draws for 47 ms, and
# the dense form costs 25 ms to form H and an 80 ms eigvalsh at the end.
# So the two cross between 300 and 500 columns a layer, and at M / 2 once
# the dense form's fixed costs are counted. These are in-process timings:
# the benchmark's simulate commands stay low-rank and never reach it.
LOW_RANK_SHARE = 0.5
# Tile of the in-place transposes and symmetrization, band of the
# orthogonality check and panel width of the FIM conjugation.
TILE = 128


def _transpose_in_place(a: np.ndarray) -> None:
    """a <- a^T for a square C-ordered a, one TILE x TILE tile at a time,
    so the only temporary is one tile."""
    M = a.shape[0]
    for i in range(0, M, TILE):
        rows = slice(i, i + TILE)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + TILE, M, TILE):
            cols = slice(j, j + TILE)
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def _symmetrize_in_place(a: np.ndarray) -> None:
    """a <- (a + a^T) / 2 for a square a, one TILE x TILE tile pair at a
    time, so the only temporary is one tile. a + a^T and a^T + a agree
    bit for bit, so a ends exactly symmetric."""
    M = a.shape[0]
    for i in range(0, M, TILE):
        rows = slice(i, i + TILE)
        for j in range(i, M, TILE):
            cols = slice(j, j + TILE)
            tile = a[rows, cols] + a[cols, rows].T
            tile /= 2.0
            a[rows, cols] = tile
            a[cols, rows] = tile.T


def _gaussian(M: int, rng: np.random.Generator) -> np.ndarray:
    """An M x M Gaussian from rng, transposed in place so that LAPACK
    reads it column-major, as numpy's QR copies it."""
    a = rng.standard_normal((M, M))
    _transpose_in_place(a)
    return a


def _factor(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """dgeqrf on _gaussian's `a` in place: its Fortran-ordered view a.T
    then holds R on and above the diagonal and the reflectors H_i =
    I - tau_i v_i v_i^T below it. Returns tau."""
    return _openblas.dgeqrf(a.T, work)


def _signs(r: np.ndarray) -> np.ndarray:
    """The signs of the Haar draw Q diag(signs) from the QR of a Gaussian,
    Q R: the sign bits of R's diagonal, +-1 even where an r_ii is 0, so
    that W stays orthogonal for every Gaussian (Stewart 1980; Mezzadri
    2007). A Householder Q is orthogonal whatever the Gaussian's rank."""
    return np.copysign(1.0, np.diagonal(r))


def _householder_draw(M: int, rng: np.random.Generator, work: np.ndarray) -> tuple:
    """(F, tau, signs): a Haar draw as numpy's QR of one M x M Gaussian
    from rng leaves it, before Q is formed.

    F = a.T of _factor. The Haar draw is Q diag(signs) with Q = H_1 ...
    H_M and signs from _signs. `work` is the LAPACK workspace
    (_openblas.lwork).
    """
    a = _gaussian(M, rng)
    tau = _factor(a, work)
    return a.T, tau, _signs(a)


def sample_haar_orthogonal(M: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed M x M orthogonal matrix: np.linalg.qr of one
    Gaussian matrix, with the sign ambiguity fixed by forcing a positive
    triangular diagonal (_signs); without the fix numpy's QR biases the
    draw away from uniform. About four M x M arrays are alive during the
    draw.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    q, r = np.linalg.qr(rng.standard_normal((M, M)))
    q *= _signs(r)
    return q


def normalized_input(M: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian vector rescaled so that ||x||^2 / M = 1."""
    x = rng.standard_normal(M)
    return x * math.sqrt(M) / np.linalg.norm(x)


def _check_layer(w: np.ndarray, s: float, width: int, ell: int, error=ValueError) -> None:
    """Raise ValueError unless layer `ell`'s W is width x width, and
    `error` unless W/s is orthogonal: max |(W/s)^T (W/s) - I| < ORTHO_TOL,
    which NaN fails.

    The Gram matrix is symmetric, so only its part on and above the
    diagonal is formed, one band of TILE rows at a time: the temporaries
    are a TILE-column slice of W/s and its band of the Gram matrix. Each
    slice is scaled before its product, so a huge sigma cannot overflow.
    """
    if w.shape != (width, width):
        raise ValueError(f"weight {ell} has shape {w.shape}")
    defect = 0.0
    for i in range(0, width, TILE):
        gram = (w[:, i : i + TILE] / s).T @ w[:, i:]
        gram /= s
        gram.flat[:: gram.shape[1] + 1] -= 1.0
        defect = np.maximum(defect, np.abs(gram, out=gram).max())
    if not defect < ORTHO_TOL:
        raise error(f"layer {ell}: W/sigma off orthogonal by {defect:.2e}")


def _reflector_defect(f: np.ndarray, tau: np.ndarray) -> float:
    """A bound on ||Q^T Q - I||_2 for the Q that the reflectors of
    _householder_draw's (F, tau) form, in O(M^2) and without forming Q.

    With c_i = tau_i v_i^T v_i, e_i = |c_i (c_i - 2)| is
    ||H_i^T H_i - I||_2, and ||Q^T Q - I||_2 <= prod(1 + e_i) - 1. That
    bounds every entry of the Gram defect _check_layer measures, so a
    check on it is no weaker. v_i is 1 at i and F[i+1:, i] below; the
    tails are the rows of F^T above its diagonal, which are summed one
    band of TILE rows at a time, so the only temporary is one band.
    """
    a = f.T
    M = a.shape[0]
    vtv = np.ones(M)
    for i in range(0, M, TILE):
        band = np.triu(a[i : i + TILE, i:], 1)
        vtv[i : i + TILE] += np.einsum("ij,ij->i", band, band)
        del band  # before the next band is formed
    c = tau * vtv
    return float(np.prod(1.0 + np.abs(c * (c - 2.0))) - 1.0)


def _check_reflectors(f: np.ndarray, tau: np.ndarray, ell: int) -> float:
    """_reflector_defect of layer `ell`'s drawn (F, tau), which is
    returned; NumericalError unless it is below ORTHO_TOL (NaN fails)."""
    defect = _reflector_defect(f, tau)
    if not defect < ORTHO_TOL:
        raise NumericalError(f"layer {ell}: W/sigma off orthogonal by {defect:.2e}")
    return defect


@dataclass
class _Householder:
    """A fresh layer W = Q diag(scale) kept as the reflectors of Q (see
    _householder_draw): scale is sigma times the draw's signs. Each TILE
    x TILE diagonal block of F becomes unit lower triangular here, on the
    drawing thread, so that _reflect_both_sides can read the blocks of
    reflectors as they stand; R, which they held, is not needed. `work`
    is the drawing thread's LAPACK workspace, which `matvec` reuses."""

    f: np.ndarray
    tau: np.ndarray
    scale: np.ndarray
    work: np.ndarray

    def __post_init__(self):
        for j in range(0, len(self.f), TILE):
            head = self.f[j : j + TILE, j : j + TILE]
            head[...] = np.tril(head, -1)
            np.fill_diagonal(head, 1.0)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """W x for one input x of shape (M,)."""
        y = self.scale * x
        _openblas.dormqr(self.f, self.tau, y, self.work)
        return y


def _haar_layers(width: int, sigma: tuple, seed: int) -> Iterator:
    """OrthogonalNet.sample's draw: W_l = sigma_l Q_l with Q_l Haar from
    default_rng(seed), one layer at a time, each checked as OrthogonalNet
    checks it as soon as it is drawn; a bad layer stops the draw there
    with NumericalError. The caller decides how many layers stay alive.
    Inside, no zip or enumerate runs over the draws: their cached result
    tuples would keep the layer before last alive during a draw."""
    rng = np.random.default_rng(seed)
    for ell, s in enumerate(sigma, start=1):
        w = sample_haar_orthogonal(width, rng)
        w *= s
        _check_layer(w, s, width, ell, NumericalError)
        yield w


class _Worker:
    """The one worker thread of a recursion, and the job it has. While H
    is low-rank, `ahead` holds and the worker factors each next draw
    (_householder_layers); once H is dense it conjugates H instead
    (_fim_step) and each draw is factored by the caller. `ahead` and
    `defect` are the one channel between the recursion and the draw that
    feeds it: _fim_recursion clears `ahead` when H turns dense, and
    _householder_layers reads it before it draws ahead; `defect` is the
    largest orthogonality defect of _householder_layers' draws so far,
    None where none was drawn. Jobs run in the caller's context, so under
    its numpy error state."""

    def __init__(self, pool: ThreadPoolExecutor):
        self.pool = pool
        self.ahead = True
        self.defect = None

    def submit(self, fn, *args) -> Future:
        return self.pool.submit(contextvars.copy_context().run, fn, *args)


@contextlib.contextmanager
def _one_worker() -> Iterator:
    """A _Worker for one recursion, with BLAS at one thread throughout, so
    that the worker and the caller each run on their own core. The worker
    is joined before the thread count is given back."""
    with _openblas.blas_threads(1), ThreadPoolExecutor(1) as pool:
        yield _Worker(pool)


def _householder_layers(M: int, scales, rng: np.random.Generator, worker: _Worker,
                        before=None, first: int = 1) -> Iterator:
    """(layer, drawn) for each of `scales`, in order: layer i is the
    _Householder of a Haar draw from rng, as _householder_draw makes it,
    with scale scales[i] times its signs, and `drawn` is what before(i)
    draws from rng just before its Gaussian (None without `before`).
    Each draw is checked as soon as it is factored (_check_reflectors,
    which names it layer first + i), and worker.defect keeps the largest
    defect.

    While worker.ahead holds (until _fim_recursion turns H dense and
    clears it), each Gaussian is factored on the worker: Gaussian i + 1
    is drawn here while the worker factors Gaussian i, and its factoring
    is submitted once that of Gaussian i is done, to run while the
    caller uses layer i. So at most two draws are alive, if the caller
    keeps no layer it was done with, and rng is read in a serial loop's
    order, one Gaussian a layer. A failure reaches the caller in serial
    order: that of the draw being factored wins over one while drawing
    ahead, and loses to the caller's while the caller holds layer i.
    """
    work = np.empty(_openblas.lwork(M))  # this thread's, which layer.matvec reuses
    side = np.empty(_openblas.lwork(M))  # the worker's
    extra = before or (lambda i: None)

    def draw(i):
        return extra(i), _gaussian(M, rng)

    def factored(got, a):
        return got, a, worker.submit(_factor, a, side)

    nxt = None  # (drawn, Gaussian, its factoring on the worker)
    worker.defect = 0.0
    try:
        for i, s in enumerate(scales):
            if nxt is None and worker.ahead:
                nxt = factored(*draw(i))
            if nxt is None:
                got = extra(i)
                f, tau, signs = _householder_draw(M, rng, work)
            else:
                got, a, job = nxt
                nxt = later = None
                if worker.ahead and i + 1 < len(scales):
                    try:
                        later = draw(i + 1)
                    except BaseException:
                        job.result()  # Gaussian i comes first in a serial loop
                        raise
                tau = job.result()
                f, signs = a.T, _signs(a)
                del a, job
                if later is not None:
                    nxt = factored(*later)
                    del later
            worker.defect = max(worker.defect, _check_reflectors(f, tau, first + i))
            signs *= s
            yield _Householder(f, tau, signs, work), got
            del f, tau, signs, got  # before the next Gaussian is drawn
    finally:
        if nxt is not None:
            nxt[2].exception()  # read; it comes after the caller's failure


def _network_layers(width: int, sigma: tuple, seed: int, worker: _Worker) -> Iterator:
    """_haar_layers' draw with each layer kept as its reflectors and
    checked on them (_householder_layers, which factors ahead on
    `worker`); Q is never formed. Needs numpy's OpenBLAS."""
    for layer, _ in _householder_layers(width, sigma, np.random.default_rng(seed), worker):
        yield layer
        del layer  # before the next layer is drawn


@dataclass
class OrthogonalNet:
    """Depth-L, width-M network with scaled-orthogonal weights.

    weights[l] is W_{l+1} = sigma_{l+1} Q with Q orthogonal; the
    orthogonality of every W/sigma is checked at construction.
    """

    width: int
    depth: int
    weights: list
    sigma: tuple
    activation: ActivationSpec
    seed: int | None = None

    def __post_init__(self):
        if self.width < 2:
            raise ValueError("need width >= 2")
        self.sigma = layer_sigmas(self.sigma, self.depth)
        if len(self.weights) != self.depth:
            raise ValueError("need one weight matrix per layer")
        for ell, (w, s) in enumerate(zip(self.weights, self.sigma), start=1):
            _check_layer(w, s, self.width, ell)

    @classmethod
    def sample(cls, width, depth, activation, sigma=1.0, seed=0):
        """Draw all layers from the Haar measure with one seeded generator."""
        sig = layer_sigmas(sigma, depth)
        weights = list(_haar_layers(width, sig, seed))
        return cls(width, depth, weights, sig, activation, seed)


def _forward_layers(weights: Iterable, activation: ActivationSpec, x: np.ndarray) -> Iterator:
    """The forward pass, one layer at a time: the one forward loop.

    For l = 1, 2, ... takes W_l from `weights` and yields (W_l, x^{l-1},
    h^l). x is one input (M,) or a batch (..., M), and each W_l is
    (M, M) or a stack (A, M, M) that meets a batch (A, M) row by row.
    Each row takes one mat-vec per layer, so it gets exactly the bits of
    `W @ x` on that row alone. A W_l kept as reflectors (_Householder)
    meets one input through them. x^l is formed only when W_{l+1}
    arrives, so the last layer's never is.
    """
    h = None
    for w in weights:
        if h is not None:
            x = activation.apply(h)
        h = w.matvec(x) if isinstance(w, _Householder) else np.matmul(w, x[..., None])[..., 0]
        yield w, x, h
        del w  # the next pull may draw: hold no layer through it


def _finite(h: np.ndarray, ell: int) -> None:
    if not np.all(np.isfinite(h)):
        raise NumericalError(f"non-finite preactivation at layer {ell}")


def _mirror_lower_in_place(a: np.ndarray) -> None:
    """a's upper triangle <- its lower one, so a ends exactly symmetric:
    a TILE x TILE tile at a time off the diagonal, a row at a time within
    the diagonal tiles, so nothing is allocated."""
    M = a.shape[0]
    for i in range(0, M, TILE):
        end = min(i + TILE, M)
        for r in range(i, end - 1):
            a[r, r + 1 : end] = a[r + 1 : end, r]
        for j in range(end, M, TILE):
            a[i:end, j : j + TILE] = a[j : j + TILE, i:end].T


def _reflect_both_sides(h: np.ndarray, layer: _Householder, work: np.ndarray) -> None:
    """h <- Q h Q^T in place for a symmetric h and a layer's Q = H_1 ...
    H_M, without forming Q.

    Q is the product B_1 ... B_p of blocks of TILE reflectors, each
    B = I - V T V^T (the compact WY form of Schreiber & Van Loan, 1989)
    acting on the indices j: from its first reflector on: V is the n x k
    unit lower trapezoidal block of F there, and dlarft gives T. So
    Q h Q^T = B_1 (... (B_p h B_p^T) ...) B_1^T, innermost block first.
    With X = h V T^T and Z = X - V (T V^T X) / 2 on the rows j:,
    B h B^T = h - Z V^T - V Z^T, which BLAS forms from one triangle of h
    alone: dgemm for the rows above j, dsymm and dsyr2k for the trailing
    block, about 2 M^3 flops where two full products take 4 M^3. The
    other triangle is then copied from it, so h ends exactly symmetric.
    `work` holds T, T V^T X and X, (2 TILE + M) x TILE doubles, so
    nothing is allocated on the thread that runs this.
    """
    M = h.shape[0]
    g, f = h.T, layer.f  # g, stored by columns, is h: its upper triangle is h's lower
    for j in reversed(range(0, M, TILE)):
        k = min(TILE, M - j)
        v = f[j:, j : j + k]
        t, s = (work[i * k * k : (i + 1) * k * k].reshape(k, k).T for i in (0, 1))
        x = work[2 * k * k : k * (2 * k + M)].reshape(k, M).T
        _openblas.dlarft(v, layer.tau[j : j + k], t)
        if j:
            _openblas.dgemm("N", "N", 1.0, g[:j, j:], v, 0.0, x[:j])
        _openblas.dsymm(1.0, g[j:, j:], v, 0.0, x[j:])
        _openblas.dtrmm("R", "T", 1.0, t, x)
        _openblas.dgemm("T", "N", 1.0, v, x[j:], 0.0, s)
        _openblas.dtrmm("L", "N", 1.0, t, s)
        _openblas.dgemm("N", "N", -0.5, v, s, 1.0, x[j:])
        if j:
            _openblas.dgemm("N", "T", -1.0, x[:j], v, 1.0, g[:j, j:])
        _openblas.dsyr2k(-1.0, x[j:], v, 1.0, g[j:, j:])
    _mirror_lower_in_place(h)


def _fim_step(h: np.ndarray, work: np.ndarray, layer: list) -> None:
    """One step of the recursion in place: h <- q I + W E h E W^T.

    `layer` is [W, e, q] with E = diag(e). For an explicit W, e is d; for
    a W kept as reflectors, Q diag(scale), e is d * scale, and Q is
    applied by _reflect_both_sides, which needs h symmetric and leaves it
    so. An explicit W is applied in h's own buffer by two sweeps through
    a panel of M x TILE doubles at the head of `work`: each column panel
    h[:, c] <- W h[:, c], which reads only that panel of h, then each row
    panel h[r] <- h[r] W^T. BLAS need not sum a panel's entries in the
    order of the full products W h and (W h) W^T, so above TILE the
    result can differ from theirs in the last bits at some widths. The
    step empties `layer`, so the thread that runs it keeps no weight once
    it returns.
    """
    w, e, q = layer
    layer.clear()
    h *= e[:, None]
    h *= e[None, :]
    M = h.shape[0]
    if isinstance(w, _Householder):
        _reflect_both_sides(h, w, work)
    else:
        for i in range(0, M, TILE):
            k = min(TILE, M - i)
            u = work[: M * k].reshape(M, k)
            np.matmul(w, h[:, i : i + k], out=u)
            h[:, i : i + k] = u
        for i in range(0, M, TILE):
            k = min(TILE, M - i)
            u = work[: k * M].reshape(k, M)
            np.matmul(h[i : i + k], w.T, out=u)
            h[i : i + k] = u
    h.reshape(-1)[:: M + 1] += q


def _low_rank_step(a: float, v: np.ndarray, t: np.ndarray, layer: _Householder, e: np.ndarray,
                   q: float) -> tuple | None:
    """One step of the recursion on H = a I + V T V^T, or None where the
    result would not stay low-rank.

    `layer` is W = Q diag(scale) and e = d * scale, so the step is
    H <- q I + Q E H E Q^T with E = diag(e). The live units are those with
    e_i != 0; they must share one kappa^2 = e_i^2. With S = sign(E), whose
    zero rows are the k dead units, E H E = kappa^2 (a (I - P) + S V T
    V^T S), P the projection on the dead units. The thin QR of the live
    rows of S V, X R, is orthonormal and zero on the dead rows, so
    B = [dead unit vectors, X] has orthonormal columns, and the new state
    is a <- q + kappa^2 a, V <- Q B (one dormqr), T <- kappa^2
    blockdiag(-a I_k, R T R^T). None is returned where the live units do
    not share one |e_i|, or where V would have more than LOW_RANK_SHARE M
    columns.
    """
    M, r = v.shape
    live = e != 0.0
    e2 = np.square(e[live])
    dead = np.flatnonzero(~live)
    k = dead.size
    # with k + r <= M / 2 the M - k live rows are at least r, as the QR needs
    if e2.size == 0 or k + r > LOW_RANK_SHARE * M or np.any(e2 != e2[0]):
        return None
    kappa2 = float(e2[0])
    b = np.zeros((M, k + r), order="F")
    b[dead, np.arange(k)] = 1.0
    rows = np.flatnonzero(live)
    if r:
        x = np.empty((rows.size, r), order="F")
        np.take(v, rows, axis=0, out=x, mode="clip")
        x *= np.sign(e[rows])[:, None]
        tau = _openblas.dgeqrf(x, layer.work)
        rt = np.triu(x[:r])
        _openblas.dorgqr(x, tau, layer.work)
        b[rows, k:] = x
        del x
        t = rt @ t @ rt.T
    if k + r:
        _openblas.dormqr(layer.f, layer.tau, b, layer.work)
    t_next = np.zeros((k + r, k + r))
    np.fill_diagonal(t_next[:k, :k], -kappa2 * a)
    t_next[k:, k:] = (t + t.T) * (0.5 * kappa2)
    return q + kappa2 * a, b, t_next


def _formed(a: float, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """H = a I + V T V^T as an M x M array, exactly symmetric, formed one
    band of TILE rows at a time, so the temporaries are one band."""
    M = v.shape[0]
    h = np.empty((M, M))
    for i in range(0, M, TILE):
        np.matmul(v[i : i + TILE] @ t, v.T, out=h[i : i + TILE])
    h.flat[:: M + 1] += a
    _symmetrize_in_place(h)
    return h


@dataclass
class FimDraw:
    """H_L of one draw, in the form the recursion left it.

    While every step stayed low-rank, H = a I + V T V^T, the n columns of
    V orthonormal and h None: its eigenvalues are M - n copies of a, the
    top atom, and a + eig(T), and H is formed only when asked for. Once a
    step turned dense, h is H and a, v and t are None. `dead` counts the
    dead units (zeros of d) of each step's D in order, `dense_layer` is
    the l of the first H_l the dense step formed, or None, and
    `ortho_defect_max` the largest orthogonality defect of the draw's
    layers (_check_reflectors), None where the layers came explicit.
    """

    dead: tuple
    dense_layer: int | None
    h: np.ndarray | None = None
    a: float | None = None
    v: np.ndarray | None = None
    t: np.ndarray | None = None
    ortho_defect_max: float | None = None

    def eigenvalues(self) -> np.ndarray:
        """The spectrum of H, ascending."""
        if self.h is not None:
            return np.linalg.eigvalsh(self.h)
        M, n = self.v.shape
        top = np.full(M - n, self.a)
        return np.sort(np.concatenate([top, self.a + np.linalg.eigvalsh(self.t)]))

    def top_atom(self) -> tuple | None:
        """(a, M - n): the top atom of the low-rank form and its
        multiplicity, or None once H is dense."""
        if self.h is not None:
            return None
        M, n = self.v.shape
        return self.a, M - n

    def matrix(self) -> np.ndarray:
        """H itself."""
        return self.h if self.h is not None else _formed(self.a, self.v, self.t)

    def finite(self) -> bool:
        """Whether every entry of H is finite, without forming H (min and
        max propagate NaN and inf without an M x M temporary)."""
        parts = (self.h,) if self.h is not None else (np.asarray(self.a), self.t)
        return all(p.size == 0 or (math.isfinite(p.min()) and math.isfinite(p.max()))
                   for p in parts)


def _fim_recursion(M: int, q0: float, layers: Iterator, worker: _Worker) -> FimDraw:
    """H_L of the recursion from H_1 = q0 I over the (W, d, q) steps in
    `layers`. Each step's E = D diag(scale) for a W kept as reflectors,
    Q diag(scale), and D for an explicit W, is formed once, here.

    Steps on layers kept as reflectors (_Householder) run on the calling
    thread on the low-rank form H = a I + V T V^T (_low_rank_step), while
    the worker factors the next draw (worker.ahead). The first step that
    cannot stay low-rank, or one on an explicit W, forms H (_formed) and
    turns the recursion dense for good: from then on each step runs on
    the worker in H's own buffer (_fim_step), with one step in flight,
    while the calling thread produces layer l + 1, so all sampling, checks
    and forward propagation stay there, in order. A failure on either
    thread stops the recursion; the step in flight is always waited for,
    and its failure, which a serial loop would have met first, wins.
    `layers` is closed on the way out. H and the worker's scratch, room
    for _fim_step's panel or _reflect_both_sides' T and X, are allocated
    once; H is updated and symmetrized in place.
    """
    a, v, t = q0, np.zeros((M, 0), order="F"), np.zeros((0, 0))
    h = work = pending = dense_layer = None
    dead, ell = [], 1
    try:
        try:
            for w, d, q in layers:
                ell += 1
                e = d * w.scale if isinstance(w, _Householder) else d
                dead.append(int(e.size - np.count_nonzero(e)))
                if h is None and isinstance(w, _Householder):
                    stepped = _low_rank_step(a, v, t, w, e, q)
                    if stepped is not None:
                        a, v, t = stepped
                        del w
                        continue
                if h is None:
                    h, a, v, t, dense_layer = _formed(a, v, t), None, None, None, ell
                    worker.ahead = False  # the draw factors its own layers from now on
                    k = min(M, TILE)
                    work = np.empty(k * (M + 2 * k))
                if pending is not None:
                    pending.result()
                pending = worker.submit(_fim_step, h, work, [w, e, q])
                del w
        finally:
            if pending is not None:
                pending.result()
    finally:
        layers.close()
    if h is None:
        return FimDraw(tuple(dead), None, a=a, v=v, t=t, ortho_defect_max=worker.defect)
    _symmetrize_in_place(h)
    return FimDraw(tuple(dead), dense_layer, h=h, ortho_defect_max=worker.defect)


def _network_steps(weights: Iterable, activation: ActivationSpec, x: np.ndarray) -> Iterator:
    """(W_l, d_{l-1}, q_hat_{l-1}) for l = 2..L of the forward pass of x
    through `weights`; d_{l-1} = phi'(h^{l-1}) is formed when W_l
    arrives."""
    prev, ell = None, 0
    for w, cur, h in _forward_layers(weights, activation, x):
        ell += 1
        _finite(h, ell)
        if prev is not None:
            yield w, activation.deriv(prev), float(cur @ cur) / cur.size
        prev = h
        del w
    if prev is None:
        raise ValueError("need at least one layer")


def dual_fim(weights: Iterable, activation: ActivationSpec, x: np.ndarray) -> FimDraw:
    """H_L by the layer recursion, in O(L M^3) time at most.

    Consumes `weights` (a list, or a generator such as a streamed draw)
    through _forward_layers on the calling thread, step by step, while
    _fim_recursion's worker either factors the next draw or conjugates
    the previous layer. Explicit weights take the dense path from the
    first step and keep its bits. Each step needs only the current W_l
    and D_{l-1}, so beyond what the caller keeps the working memory is at
    most three M x M arrays, H and the weights of the two layers in hand,
    plus one scratch of about M x TILE, whatever the depth.
    """
    with _one_worker() as worker:
        return _dual_fim(weights, activation, x, worker)


def _dual_fim(weights: Iterable, activation: ActivationSpec, x: np.ndarray,
              worker: _Worker) -> FimDraw:
    """dual_fim on `worker`, the one the caller draws `weights` through
    (_network_layers)."""
    x = np.asarray(x, dtype=float)
    if not np.linalg.norm(x) > 0:
        raise ValueError("input must be nonzero")
    return _fim_recursion(x.size, float(x @ x) / x.size, _network_steps(weights, activation, x),
                          worker)


def network_fim_sample(
    width: int,
    depth: int,
    activation: ActivationSpec,
    sigma,
    seed: int,
    x: np.ndarray,
) -> FimDraw:
    """H_L of the network OrthogonalNet.sample(width, depth, activation,
    sigma, seed) at input x, without building the network.

    Each layer is drawn, checked and forward-propagated on the calling
    thread, so the peak memory does not grow with depth, and a bad layer
    stops the draw there. Where numpy's OpenBLAS is found the layers stay
    as their reflectors (_network_layers), and the draw shares the
    recursion's worker: while H stays low-rank the worker factors layer
    l + 1's Gaussian as the caller takes layer l's step, and at most two
    draws are alive; once H turns dense, the worker conjugates it while
    the caller draws, as in dual_fim. The eigenvalues agree with those of
    dual_fim(net.weights, activation, x) to rounding, within 1e-12 of the
    largest. Elsewhere the explicit draw (_haar_layers) goes through
    dual_fim, and H is bit-identical.
    """
    if np.shape(x) != (width,):
        raise ValueError(f"input must have shape ({width},)")
    sig = layer_sigmas(sigma, depth)
    if not _openblas.found():
        return dual_fim(_haar_layers(width, sig, seed), activation, x)
    with _one_worker() as worker:
        return _dual_fim(_network_layers(width, sig, seed, worker), activation, x, worker)


def near_top_mask(vals: np.ndarray, window: float) -> np.ndarray:
    """Mask of the eigenvalues in `vals` within relative distance
    `window` of the largest."""
    top = float(vals.max())
    return vals >= top - window * max(abs(top), 1e-300)


def empirical_measure(
    vals: np.ndarray,
    bin_width: float,
    atom_window: float | None = None,
) -> SpectralMeasure:
    """Histogram the spectrum `vals` into a unit-mass SpectralMeasure.

    Bin edges sit at integer multiples of bin_width (the same alignment
    distance_L1 uses, so theory-vs-empirical comparisons bin
    consistently), and a value within 1e-12 max |vals| of an edge counts
    in the bin above it. With atom_window set, eigenvalues within that
    relative distance of the maximum become a single atom at their mean
    and only the rest is histogrammed. A bin width that check_bin_width
    refuses for the spectrum's range raises ValueError.
    """
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    check_bin_width(vals.min(), vals.max(), bin_width)
    total = len(vals)
    atoms = []
    if atom_window is not None:
        mask = near_top_mask(vals, atom_window)
        if mask.any():
            atoms.append((float(vals[mask].mean()), float(mask.sum()) / total))
            vals = vals[~mask]
    if len(vals) == 0:
        return SpectralMeasure.from_atoms(atoms)
    if vals.max() - vals.min() < 1e-12 * max(1.0, abs(float(vals.max()))):
        atoms.append((float(vals.mean()), len(vals) / total))
        return SpectralMeasure.from_atoms(atoms)

    # a value within rounding of an edge counts in the bin above that edge,
    # so last-bit noise cannot split an atom that sits on an edge
    k = np.round(vals / bin_width)
    vals = np.where(np.abs(vals - k * bin_width) <= 1e-12 * np.abs(vals).max(),
                    k * bin_width, vals)
    lo = math.floor(vals.min() / bin_width)
    hi = math.ceil(vals.max() / bin_width)
    if hi * bin_width <= vals.max():
        hi += 1
    edges = np.arange(lo, hi + 1) * bin_width
    counts, _ = np.histogram(vals, bins=edges)
    cdf = np.concatenate([[0.0], np.cumsum(counts)]) / total
    grid_count = max(64, 8 * len(counts) + 1)
    nodes = np.linspace(edges[0], edges[-1], grid_count)
    cell_edges = np.concatenate([[nodes[0]], (nodes[:-1] + nodes[1:]) / 2.0, [nodes[-1]]])
    cell_cdf = np.interp(cell_edges, edges, cdf)
    masses = np.maximum(np.diff(cell_cdf), 0.0)
    density = GridDensity.from_cell_masses(float(nodes[0]), float(nodes[-1]), masses)
    return SpectralMeasure.from_atoms(atoms, density=density)


def model_fim_sample(M: int, schedule: LayerSchedule, rng: np.random.Generator) -> FimDraw:
    """Sample the matrix model behind the spectrum recursion directly.

    Runs H <- q_l I + W D H D W^T along the LayerSchedule `schedule`, with
    independent Haar W = sigma_l Q and iid diagonal D whose squared
    entries follow layer l's Jacobian law (1-alpha) delta_0 + alpha
    delta_gamma. This replaces the network's correlated activations by
    their limiting law, which is what the free convolution describes
    exactly; finite-M agreement with network draws is itself a freeness
    check.

    Each layer's D is drawn from `rng` just before its W, in order, so
    the rng ends in the same state as a serial loop would leave it. Where
    numpy's OpenBLAS is found W stays as its reflectors, with sigma_l
    folded into its scale, checked on them as it is drawn, and Q is
    never formed: while H stays low-rank
    (at most LOW_RANK_SHARE M dead units in all) the worker factors the
    next W as the caller takes this layer's step, and once it is dense
    the worker conjugates it while the caller draws. Elsewhere W is
    formed from sample_haar_orthogonal, unchecked, since a Gram check
    costs O(M^3) a layer, and every step is dense: W (D H D) W^T, as in
    the network model.
    """

    def jacobian(i):
        nu = schedule.jacobians[i]
        return math.sqrt(nu.gamma) * (rng.random(M) < nu.alpha).astype(float)

    def layers(worker):
        if not _openblas.found():
            for i, s in enumerate(schedule.sigma[1:]):
                d = jacobian(i)
                w = sample_haar_orthogonal(M, rng)
                w *= s
                yield w, d, schedule.q[i + 1]
            return
        i = 0
        # the first W drawn is W_2: H_1 = q_0 I needs none
        for layer, d in _householder_layers(M, schedule.sigma[1:], rng, worker, jacobian, 2):
            i += 1
            yield layer, d, schedule.q[i]
            del layer, d

    with _one_worker() as worker:
        return _fim_recursion(M, schedule.q[0], layers(worker), worker)
