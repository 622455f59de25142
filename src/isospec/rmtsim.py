"""Finite-width random network simulator.

Networks have square Haar-orthogonal weight matrices scaled by sigma and
piecewise-linear activations; the output is the last preactivation. The
central object measured here is the dual conditional Fisher information

    H_L = (1/M) (df/dtheta)(df/dtheta)^T
        = sum_l q_hat_{l-1} delta_{L->l} delta_{L->l}^T,

built by the layer recursion H_{l+1} = q_hat_l I + W_{l+1} D_l H_l D_l
W_{l+1}^T (starting from H_1 = q_hat_0 I). The forward loop over
weights in hand, _forward_layers, runs one input or a batch (trainlab's
sweep steps through it).

Every activation here has |phi'| in {0, c}, so each step keeps H =
a I + V T V^T: a is the top atom, and V, orthonormal, has one column per
unit dead so far. H's eigenvalues are M - n copies of a and a + eig(T),
so no M x M eigensolve is needed. A step on this form reads its layer
only through Q B, B = [dead unit vectors, X] with X from V
(_low_rank_step), and the network's forward pass reads it through Q x.
Q is Haar and independent of C = [B, x], so Q C has the law of Y R for a
thin QR C = U R and Y uniform on the Stiefel manifold of M x m frames
(Mezzadri 2007). Simulate's two models therefore decide each step's
regime before its layer is drawn, and while H stays low-rank draw only
Y, from numpy's QR of one M x m Gaussian, checked in O(M m^2)
(_HaarDraws.thin). Such a step costs O(M m^2) and allocates no M x M
array.

Once V would have more than LOW_RANK_SHARE M columns, or the live units'
|d_i| differ, H is formed and every later step conjugates it densely
(_fim_step) by a full Haar layer (_HaarDraws.full). Where numpy's bundled
OpenBLAS is found (see _openblas), that layer stays as the Householder
reflectors that dgeqrf leaves, checked on them in O(M^2) and applied to H
by blocks of TILE of them (_reflect_both_sides), and one worker thread
conjugates layer l in H's own buffer while the caller draws layer l + 1,
with BLAS at one thread, so the two threads share the cores. Elsewhere
the layer is numpy's explicit Q, checked by its Gram matrix, and each
step is waited for before the next draw.

A Haar draw, thin or full, is Q diag(s) from the QR of one Gaussian, Q R,
with s_i the sign bit of r_ii: +-1 even where r_ii is 0, so each draw
reads exactly one Gaussian. Empirical spectral measures feed the
comparison against the free-probability predictions.
"""

import contextlib
import contextvars
import math
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .freeconv import LayerSchedule
from .meanfield import ActivationSpec, layer_sigmas
from .specmeasure import GridDensity, NumericalError, SpectralMeasure, check_bin_width

ORTHO_TOL = 1e-10
# The recursion keeps H = a I + V T V^T while V has at most this share of
# M columns. At M = 1000 and one BLAS thread a low-rank step, its thin draw
# included, takes 14, 36, 63 and 79 ms at 100, 250, 400 and 490 columns
# (17, 47, 86 and 112 ms with the network's input column). A dense layer
# takes 45 ms to draw and check on the caller while the worker conjugates
# the last one in 51 ms, and the dense form adds 26 ms to form H and an
# 88 ms eigvalsh at the end. So the two cross near 300 columns a layer,
# and near M / 2 once the dense form's fixed costs are counted. These are
# in-process timings: the benchmark's simulate commands stay low-rank.
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


def _signs(r: np.ndarray) -> np.ndarray:
    """The signs of the Haar draw Q diag(signs) from the QR of a Gaussian,
    Q R: the sign bits of R's diagonal, +-1 even where an r_ii is 0, so
    that W stays orthogonal for every Gaussian (Stewart 1980; Mezzadri
    2007). A Householder Q is orthogonal whatever the Gaussian's rank."""
    return np.copysign(1.0, np.diagonal(r))


def _householder_draw(M: int, rng: np.random.Generator, work: np.ndarray) -> tuple:
    """(F, tau, signs): a Haar draw as numpy's QR of one M x M Gaussian
    from rng leaves it, before Q is formed.

    The Gaussian is transposed in place, so that LAPACK reads it
    column-major as numpy's QR copies it, and dgeqrf factors it in place:
    its Fortran-ordered view F = a.T then holds R on and above the
    diagonal and the reflectors H_i = I - tau_i v_i v_i^T below it. The
    Haar draw is Q diag(signs) with Q = H_1 ... H_M and signs from
    _signs. `work` is the LAPACK workspace (_openblas.lwork).
    """
    a = rng.standard_normal((M, M))
    _transpose_in_place(a)
    tau = _openblas.dgeqrf(a.T, work)
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


def _check_columns(w: np.ndarray, s: float, ell: int, error=NumericalError) -> float:
    """max |(W/s)^T (W/s) - I| for layer `ell`'s W of M x m, which is
    returned; `error` unless it is below ORTHO_TOL, which NaN fails.

    The Gram matrix is symmetric, so only its part on and above the
    diagonal is formed, one band of TILE rows at a time: the temporaries
    are a TILE-column slice of W/s and its band of the Gram matrix. Each
    slice is scaled before its product, so a huge sigma cannot overflow.
    """
    defect = 0.0
    for i in range(0, w.shape[1], TILE):
        gram = (w[:, i : i + TILE] / s).T @ w[:, i:]
        gram /= s
        gram.flat[:: gram.shape[1] + 1] -= 1.0
        defect = np.maximum(defect, np.abs(gram, out=gram).max())
    if not defect < ORTHO_TOL:
        raise error(f"layer {ell}: W/sigma off orthogonal by {defect:.2e}")
    return float(defect)


def _check_layer(w: np.ndarray, s: float, width: int, ell: int, error=ValueError) -> None:
    """Raise ValueError unless layer `ell`'s W is width x width, and
    `error` unless W/s is orthogonal (_check_columns)."""
    if w.shape != (width, width):
        raise ValueError(f"weight {ell} has shape {w.shape}")
    _check_columns(w, s, ell, error)


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
    """A fresh layer Q diag(scale) kept as the reflectors of Q (see
    _householder_draw): scale is the draw's signs. Each TILE x TILE
    diagonal block of F becomes unit lower triangular here, on the
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
        """Q diag(scale) x for one input x of shape (M,)."""
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


def _stiefel(M: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Y, M x m with orthonormal columns and uniform on the Stiefel
    manifold: numpy's QR of one M x m Gaussian from rng, with the signs of
    R's diagonal (_signs), as sample_haar_orthogonal draws all M columns.
    An M x 0 Y reads nothing from rng."""
    y, r = np.linalg.qr(rng.standard_normal((M, m)))
    y *= _signs(r)
    return y


class _HaarDraws:
    """The Haar layers of one simulated draw, each drawn from `rng` when
    the recursion asks for it and checked as soon as it is drawn: a bad
    layer raises NumericalError naming it. `defect` is the largest
    orthogonality defect of the layers drawn so far."""

    def __init__(self, M: int, rng: np.random.Generator):
        self.M, self.rng = M, rng
        self.defect = 0.0
        self.work = None  # the LAPACK workspace, made at the first full draw

    def thin(self, c: np.ndarray, ell: int, orthonormal: bool = False) -> np.ndarray:
        """Q C in law, for layer `ell`'s Haar Q and an M x m C: Y R with
        Y from _stiefel and C = U R a thin QR, since Q U is uniform on the
        Stiefel manifold and independent of R. Where C's columns are
        orthonormal, Q C is Y itself."""
        y = _stiefel(self.M, c.shape[1], self.rng)
        self.defect = max(self.defect, _check_columns(y, 1.0, ell))
        return y if orthonormal else y @ np.linalg.qr(c, mode="r")

    def full(self, ell: int):
        """Layer `ell`'s whole Haar Q: a _Householder where numpy's
        OpenBLAS is found, checked on its reflectors in O(M^2), and
        elsewhere sample_haar_orthogonal's explicit Q, checked by its Gram
        matrix."""
        if _openblas.found():
            if self.work is None:
                self.work = np.empty(_openblas.lwork(self.M))
            f, tau, signs = _householder_draw(self.M, self.rng, self.work)
            self.defect = max(self.defect, _check_reflectors(f, tau, ell))
            return _Householder(f, tau, signs, self.work)
        q = sample_haar_orthogonal(self.M, self.rng)
        self.defect = max(self.defect, _check_columns(q, 1.0, ell))
        return q


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
    """The forward pass through weights in hand, one layer at a time.

    For l = 1, 2, ... takes W_l from `weights` and yields (W_l, x^{l-1},
    h^l). x is one input (M,) or a batch (..., M), and each W_l is
    (M, M) or a stack (A, M, M) that meets a batch (A, M) row by row.
    Each row takes one mat-vec per layer, so it gets exactly the bits of
    `W @ x` on that row alone. x^l is formed only when W_{l+1} arrives,
    so the last layer's never is.
    """
    h = None
    for w in weights:
        if h is not None:
            x = activation.apply(h)
        h = np.matmul(w, x[..., None])[..., 0]
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


def _low_rank_step(a: float, v: np.ndarray, t: np.ndarray, e: np.ndarray, q: float) -> tuple | None:
    """One step H <- q I + Q E H E Q^T on H = a I + V T V^T, up to the
    layer's orthogonal Q, or None where the result would not stay
    low-rank.

    E = diag(e). The live units are those with e_i != 0; they must share
    one kappa^2 = e_i^2. With S = sign(E), whose zero rows are the k dead
    units, E H E = kappa^2 (a (I - P) + S V T V^T S), P the projection on
    the dead units. The thin QR of the live rows of S V, X R, is
    orthonormal and zero on the dead rows, so B = [dead unit vectors, X]
    has orthonormal columns, and the new H is a' I + (Q B) T' (Q B)^T with
    a' = q + kappa^2 a and T' = kappa^2 blockdiag(-a I_k, R T R^T).
    Returns (a', B, T'): the step reads Q only through Q B. None is
    returned where the live units do not share one |e_i|, or where V would
    have more than LOW_RANK_SHARE M columns.
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
    b = np.zeros((M, k + r))
    b[dead, np.arange(k)] = 1.0
    if r:
        rows = np.flatnonzero(live)
        x, rt = np.linalg.qr(np.sign(e[rows])[:, None] * v[rows])
        b[rows, k:] = x
        t = rt @ t @ rt.T
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
    layers (_HaarDraws), None where none was checked.
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


class _Recursion:
    """The recursion H_{l+1} = q_l I + W E_l H_l E_l W^T from H_1 = q0 I,
    one step at a time, on the calling thread while H is low-rank and on
    `pool`'s one worker once it is dense.

    `step(e, q)` begins each step, E = diag(e), and decides its regime
    before its layer is drawn. While H = a I + V T V^T stays low-rank
    (_low_rank_step) it returns B, and setting V to Q B ends the step. The
    first step that cannot stay low-rank and every later one return None:
    the first forms H (_formed), and `dense(W, e, q)` ends the step in H's
    own buffer (_fim_step) on the worker, one step in flight, while the
    caller produces the next layer. H and the worker's scratch, room for
    _fim_step's panel or _reflect_both_sides' T and X, are allocated once.
    Jobs run in the caller's context, so under its numpy error state.
    """

    def __init__(self, M: int, q0: float, pool: ThreadPoolExecutor):
        self.a, self.v, self.t = q0, np.zeros((M, 0)), np.zeros((0, 0))
        self.h = self.work = self.pending = self.dense_layer = None
        self.dead, self.ell = [], 1
        self.pool = pool

    def step(self, e: np.ndarray, q: float) -> np.ndarray | None:
        self.ell += 1
        self.dead.append(int(e.size - np.count_nonzero(e)))
        if self.h is None:
            stepped = _low_rank_step(self.a, self.v, self.t, e, q)
            if stepped is not None:
                self.a, b, self.t = stepped
                return b
            M = self.v.shape[0]
            self.h, self.dense_layer = _formed(self.a, self.v, self.t), self.ell
            self.a = self.v = self.t = None
            k = min(M, TILE)
            self.work = np.empty(k * (M + 2 * k))
        return None

    def dense(self, w, e: np.ndarray, q: float) -> None:
        """W is explicit, or a _Householder Q diag(scale), whose scale
        joins e here. The step on an explicit W, numpy's Q where numpy
        bundles no OpenBLAS, is waited for at once: there BLAS cannot be
        held at one thread, and the next draw's four M x M temporaries
        beside a layer still in conjugation would make the peak memory
        depend on which thread finishes first."""
        if isinstance(w, _Householder):
            e = e * w.scale
        self.wait()
        self.pending = self.pool.submit(contextvars.copy_context().run, _fim_step, self.h,
                                        self.work, [w, e, q])
        if not isinstance(w, _Householder):
            self.wait()

    def wait(self) -> None:
        """Wait for the step in flight, and raise its failure."""
        pending, self.pending = self.pending, None
        if pending is not None:
            pending.result()

    def result(self, defect: float) -> FimDraw:
        dead = tuple(self.dead)
        if self.h is None:
            return FimDraw(dead, None, a=self.a, v=self.v, t=self.t, ortho_defect_max=defect)
        self.wait()
        _symmetrize_in_place(self.h)
        return FimDraw(dead, self.dense_layer, h=self.h, ortho_defect_max=defect)


@contextlib.contextmanager
def _recursion(M: int, q0: float) -> Iterator:
    """A _Recursion and its worker, with BLAS at one thread throughout, so
    that the worker and the caller each run on their own core. On every
    way out the step in flight is waited for; its failure, which a serial
    loop would have met first, wins over the caller's. The worker is
    joined before the thread count is given back."""
    with _openblas.blas_threads(1), ThreadPoolExecutor(1) as pool:
        fim = _Recursion(M, q0, pool)
        try:
            yield fim
        finally:
            fim.wait()


def network_fim_sample(
    width: int,
    depth: int,
    activation: ActivationSpec,
    sigma,
    seed: int,
    x: np.ndarray,
) -> FimDraw:
    """H_L of one random network with Haar layers drawn from
    default_rng(seed), at input x, without building the network: in law
    the H_L of OrthogonalNet.sample(width, depth, activation, sigma, seed)
    at x.

    Layer l's regime is decided before it is drawn. While H stays
    low-rank, W_l = sigma_l Q is read only through Q C, C = [B, x^{l-1}]
    (_Recursion.step gives B), so one thin draw (_HaarDraws.thin) gives
    both V and the pre-activation h^l = sigma_l Q x^{l-1}; layer 1, whose
    B is empty, is one column. Once H is dense each layer is drawn whole
    (_HaarDraws.full), forward-propagated on the calling thread and
    conjugated into H on the worker. Every draw is checked as it is
    drawn, so a bad layer stops the draw there, and the peak memory does
    not grow with depth.
    """
    if np.shape(x) != (width,):
        raise ValueError(f"input must have shape ({width},)")
    sig = layer_sigmas(sigma, depth)
    x = np.asarray(x, dtype=float)
    if not np.linalg.norm(x) > 0:
        raise ValueError("input must be nonzero")
    draws = _HaarDraws(width, np.random.default_rng(seed))
    with _recursion(width, float(x @ x) / width) as fim:
        b = np.zeros((width, 0))
        for ell, s in enumerate(sig, start=1):
            if ell > 1:
                x = activation.apply(h)
                e, q = activation.deriv(h) * s, float(x @ x) / width
                b = fim.step(e, q)
            if b is None:
                w = draws.full(ell)
                fim.dense(w, e, q)
                h = w.matvec(x) if isinstance(w, _Householder) else w @ x
                h *= s
                del w  # before the next layer is drawn
            else:
                qc = draws.thin(np.column_stack([b, x]), ell)
                fim.v = qc[:, :-1]
                h = s * qc[:, -1]
            _finite(h, ell)
        return fim.result(draws.defect)


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

    Each layer's D is drawn from `rng` just before its W. While H stays
    low-rank (at most LOW_RANK_SHARE M dead units in all), a step reads Q
    only through Q B, whose columns are orthonormal, so Q B is drawn as
    one Y uniform on the Stiefel manifold (_HaarDraws.thin), with as many
    columns as V will have. Once H is dense each Q is drawn whole
    (_HaarDraws.full) and conjugated into H on the worker while the
    caller draws the next. Every draw is checked as it is drawn.
    """
    draws = _HaarDraws(M, rng)
    with _recursion(M, schedule.q[0]) as fim:
        for i, s in enumerate(schedule.sigma[1:]):
            nu = schedule.jacobians[i]
            e = math.sqrt(nu.gamma) * s * (rng.random(M) < nu.alpha)
            b = fim.step(e, schedule.q[i + 1])
            # the first W drawn is W_2: H_1 = q_0 I needs none
            if b is None:
                fim.dense(draws.full(i + 2), e, schedule.q[i + 1])
            else:
                fim.v = draws.thin(b, i + 2, orthonormal=True)
        return fim.result(draws.defect)
