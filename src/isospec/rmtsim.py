"""Finite-width random network simulator.

Networks have square Haar-orthogonal weight matrices scaled by sigma and
piecewise-linear activations; the output is the last preactivation. The
central object measured here is the dual conditional Fisher information

    H_L = (1/M) (df/dtheta)(df/dtheta)^T
        = sum_l q_hat_{l-1} delta_{L->l} delta_{L->l}^T,

built by the layer recursion H_{l+1} = q_hat_l I + W_{l+1} D_l H_l D_l
W_{l+1}^T (starting from H_1 = q_hat_0 I). The one forward loop,
_forward_layers, runs one input or a batch (trainlab's sweep steps
through it too). The recursion consumes it one layer at a time,
so a network draw can be streamed through it without ever holding more
than two weights; one worker thread conjugates layer l in H's own
buffer while the calling thread draws layer l + 1.

Each Haar draw is factored in its own M x M buffer by dgeqrf, the
LAPACK routine numpy's QR calls, reached in numpy's bundled OpenBLAS
(see _openblas). The draw is then Q diag(sign r_ii), Q the product of
dgeqrf's Householder reflectors. sample_haar_orthogonal forms Q there
with dorgqr and keeps np.linalg.qr's bits. Simulate's two models never
form Q: each fresh layer stays as its reflectors and is conjugated into
H by blocks of TILE of them (_reflect_both_sides); the network's layers
are also checked on them in O(M^2) and meet the forward pass through
dormqr. So a draw needs no dorgqr, no Gram check and no full M x M
product. np.linalg.qr and the dense path are the fallback where that
library is not found; weights passed in keep the dense path and its
full Gram check, formed in bands.
Empirical spectral measures feed the comparison against the
free-probability predictions.
"""

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


def _full_rank(d: np.ndarray) -> bool:
    """Whether the triangular diagonal d of a Gaussian's QR is bounded
    away from 0; a (probability-zero) near-singular draw is resampled."""
    return np.abs(d).min() >= 1e-12 * math.sqrt(d.size)


def _householder_draw(M: int, rng: np.random.Generator, work: np.ndarray) -> tuple:
    """(F, tau, signs): a Haar draw as numpy's QR of an M x M Gaussian
    from rng leaves it, before Q is formed.

    The Gaussian is transposed in place so that LAPACK reads it
    column-major, as numpy's QR copies it, and dgeqrf factors it there:
    F, its Fortran-ordered view, holds R on and above the diagonal and the
    reflectors H_i = I - tau_i v_i v_i^T below it. The Haar draw is
    Q diag(signs) with Q = H_1 ... H_M and signs = sign(diag R) (Stewart
    1980; Mezzadri 2007). `work` is the LAPACK workspace (_openblas.lwork).
    """
    for _ in range(8):
        a = rng.standard_normal((M, M))
        _transpose_in_place(a)
        tau = _openblas.dgeqrf(a.T, work)
        if _full_rank(np.diagonal(a)):
            return a.T, tau, np.sign(np.diagonal(a))
    raise NumericalError("repeated rank-deficient Gaussian draws")


def sample_haar_orthogonal(M: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed M x M orthogonal matrix, with np.linalg.qr's bits.

    QR of a Gaussian matrix with the sign ambiguity fixed by forcing a
    positive triangular diagonal; without the fix numpy's QR biases the
    draw away from uniform. Where numpy's OpenBLAS is found, Q is formed
    by dorgqr in the one M x M buffer of _householder_draw and transposed
    back in place; np.linalg.qr is the fallback, with about four M x M
    arrays alive at once.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    if _openblas.found():
        work = np.empty(_openblas.lwork(M))
        f, tau, signs = _householder_draw(M, rng, work)
        _openblas.dorgqr(f, tau, work)
        q = f.T
        _transpose_in_place(q)
    else:
        for _ in range(8):
            q, r = np.linalg.qr(rng.standard_normal((M, M)))
            if _full_rank(np.diagonal(r)):
                break
        else:
            raise NumericalError("repeated rank-deficient Gaussian draws")
        signs = np.sign(np.diagonal(r))
    q *= signs
    return q


def normalized_input(M: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian vector rescaled so that ||x||^2 / M = 1."""
    x = rng.standard_normal(M)
    return x * math.sqrt(M) / np.linalg.norm(x)


def _check_layer(w: np.ndarray, s: float, width: int, ell: int) -> None:
    """Raise ValueError unless layer `ell`'s W is width x width and W/s
    is orthogonal: max |(W/s)^T (W/s) - I| < ORTHO_TOL, which NaN fails.

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
        raise ValueError(f"layer {ell}: W/sigma off orthogonal by {defect:.2e}")


def _check_reflectors(f: np.ndarray, tau: np.ndarray, ell: int) -> None:
    """Raise ValueError unless the reflectors of _householder_draw's
    (F, tau) form an orthogonal Q, in O(M^2) and without forming Q.

    With c_i = tau_i v_i^T v_i, e_i = |c_i (c_i - 2)| is
    ||H_i^T H_i - I||_2, and ||Q^T Q - I||_2 <= prod(1 + e_i) - 1, which
    must be below ORTHO_TOL (NaN fails). That bounds every entry of the
    Gram defect _check_layer measures, so this check is no weaker. v_i is
    1 at i and F[i+1:, i] below; the tails are the rows of F^T above its
    diagonal, which are summed one band of TILE rows at a time, so the
    only temporary is one band.
    """
    a = f.T
    M = a.shape[0]
    vtv = np.ones(M)
    for i in range(0, M, TILE):
        band = np.triu(a[i : i + TILE, i:], 1)
        vtv[i : i + TILE] += np.einsum("ij,ij->i", band, band)
        del band  # before the next band is formed
    c = tau * vtv
    defect = np.prod(1.0 + np.abs(c * (c - 2.0))) - 1.0
    if not defect < ORTHO_TOL:
        raise ValueError(f"layer {ell}: W/sigma off orthogonal by {defect:.2e}")


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
        _openblas.dormqr("L", "N", self.f, self.tau, y, self.work)
        return y


def _haar_layers(width: int, sigma: tuple, seed: int) -> Iterator:
    """OrthogonalNet.sample's draw: W_l = sigma_l Q_l with Q_l Haar from
    default_rng(seed), one layer at a time, each checked as OrthogonalNet
    checks it as soon as it is drawn; a bad layer stops the draw there.
    The caller decides how many layers stay alive. Inside, no zip or
    enumerate runs over the draws: their cached result tuples would keep
    the layer before last alive during a draw."""
    rng = np.random.default_rng(seed)
    for ell, s in enumerate(sigma, start=1):
        w = sample_haar_orthogonal(width, rng)
        w *= s
        _check_layer(w, s, width, ell)
        yield w


def _network_layers(width: int, sigma: tuple, seed: int) -> Iterator:
    """_haar_layers' draw as network_fim_sample consumes it. Where numpy's
    OpenBLAS is found, each layer stays as its reflectors (_Householder),
    checked on them, and all share one LAPACK workspace; Q is never
    formed. Elsewhere this is _haar_layers."""
    if not _openblas.found():
        yield from _haar_layers(width, sigma, seed)
        return
    rng = np.random.default_rng(seed)
    work = np.empty(_openblas.lwork(width))
    for ell, s in enumerate(sigma, start=1):
        f, tau, signs = _householder_draw(width, rng, work)
        _check_reflectors(f, tau, ell)
        signs *= s
        yield _Householder(f, tau, signs, work)


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
        _openblas.dsymm("U", 1.0, g[j:, j:], v, 0.0, x[j:])
        _openblas.dtrmm("R", "U", "T", 1.0, t, x)
        _openblas.dgemm("T", "N", 1.0, v, x[j:], 0.0, s)
        _openblas.dtrmm("L", "U", "N", 1.0, t, s)
        _openblas.dgemm("N", "N", -0.5, v, s, 1.0, x[j:])
        if j:
            _openblas.dgemm("N", "T", -1.0, x[:j], v, 1.0, g[:j, j:])
        _openblas.dsyr2k("U", -1.0, x[j:], v, 1.0, g[j:, j:])
    _mirror_lower_in_place(h)


def _fim_step(h: np.ndarray, work: np.ndarray, layer: list) -> None:
    """One step of the recursion in place: h <- q I + W D h D W^T.

    `layer` is [W, d, q]; d None skips the D scaling, for callers that
    pass W D as W. A W kept as reflectors, Q diag(scale), folds scale
    into d in place and is applied by _reflect_both_sides, which needs h
    symmetric and leaves it so. An explicit W is applied in h's own
    buffer by two sweeps through a panel of M x TILE doubles at the head
    of `work`: each column panel h[:, c] <- W h[:, c], which reads only
    that panel of h, then each row panel h[r] <- h[r] W^T. BLAS need not
    sum a panel's entries in the order of the full products W h and
    (W h) W^T, so above TILE the result can differ from theirs in the
    last bits at some widths. The step empties `layer`, so the thread
    that runs it keeps no weight once it returns.
    """
    w, d, q = layer
    layer.clear()
    reflectors = isinstance(w, _Householder)
    if reflectors:  # fold scale into d, which is this step's own
        d = w.scale if d is None else np.multiply(d, w.scale, out=d)
    if d is not None:
        h *= d[:, None]
        h *= d[None, :]
    M = h.shape[0]
    if reflectors:
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


def _fim_recursion(M: int, q0: float, layers: Iterable) -> np.ndarray:
    """H_L of the recursion from H_1 = q0 I over the (W, d, q) steps in
    `layers`, symmetrized.

    The steps run on one worker thread, in the caller's context (so under
    its numpy error state), with one step in flight: while the worker
    conjugates layer l the calling thread produces layer l + 1, so all
    sampling, checks and forward propagation stay there, in order. A
    failure on either thread stops the recursion; the step in flight is
    always waited for, and its failure, which a serial loop would have
    met first, wins. No thread outlives the call. H and the worker's
    scratch, room for _fim_step's panel or _reflect_both_sides' T and X,
    are allocated once; H is updated and symmetrized in place.
    """
    h = np.zeros((M, M))
    h.flat[:: M + 1] = q0
    k = min(M, TILE)
    work = np.empty(k * (M + 2 * k))
    with ThreadPoolExecutor(1) as pool:
        pending = None
        try:
            for w, d, q in layers:
                if pending is not None:
                    pending.result()
                pending = pool.submit(
                    contextvars.copy_context().run, _fim_step, h, work, [w, d, q]
                )
        finally:
            if pending is not None:
                pending.result()
    _symmetrize_in_place(h)
    return h


def dual_fim(weights: Iterable, activation: ActivationSpec, x: np.ndarray) -> np.ndarray:
    """H_L by the layer recursion, in O(L M^3) time.

    Consumes `weights` (a list, or a generator such as a streamed draw)
    through _forward_layers on the calling thread while _fim_recursion
    conjugates the previous layer on its worker. Each step needs only the
    current W_l and D_{l-1}, so beyond what the caller keeps the working
    memory is three M x M arrays, H and the weights of the two layers in
    hand, plus one scratch of about M x TILE, whatever the depth.
    """
    x = np.asarray(x, dtype=float)
    if not np.linalg.norm(x) > 0:
        raise ValueError("input must be nonzero")

    def steps():
        """(W_l, d_{l-1}, q_hat_{l-1}) for l = 2..L; d_{l-1} =
        phi'(h^{l-1}) is formed when W_l arrives."""
        prev = None
        for ell, (w, cur, h) in enumerate(_forward_layers(weights, activation, x), start=1):
            _finite(h, ell)
            if prev is not None:
                yield w, activation.deriv(prev), float(cur @ cur) / cur.size
            prev = h
        if prev is None:
            raise ValueError("need at least one layer")

    return _fim_recursion(x.size, float(x @ x) / x.size, steps())


def network_fim_sample(
    width: int,
    depth: int,
    activation: ActivationSpec,
    sigma,
    seed: int,
    x: np.ndarray,
) -> np.ndarray:
    """H_L of the network OrthogonalNet.sample(width, depth, activation,
    sigma, seed) at input x, without building the network.

    Each layer is drawn, checked and forward-propagated on the calling
    thread while dual_fim's worker conjugates the layer before it, so at
    most two weights are alive and the peak memory does not grow with
    depth. A bad layer stops the draw there. Where numpy's OpenBLAS is
    found the layers stay as their reflectors (_network_layers), so the
    result agrees with dual_fim(net.weights, activation, x) to rounding,
    within 1e-13 of max |H| at the tested shapes; elsewhere it is
    bit-identical.
    """
    if np.shape(x) != (width,):
        raise ValueError(f"input must have shape ({width},)")
    sig = layer_sigmas(sigma, depth)
    return dual_fim(_network_layers(width, sig, seed), activation, x)


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


def model_fim_sample(M: int, schedule: LayerSchedule, rng: np.random.Generator) -> np.ndarray:
    """Sample the matrix model behind the spectrum recursion directly.

    Runs H <- q_l I + W D H D W^T along the LayerSchedule `schedule`, with
    independent Haar W = sigma_l Q and iid diagonal D whose squared
    entries follow layer l's Jacobian law (1-alpha) delta_0 + alpha
    delta_gamma. This replaces the network's correlated activations by
    their limiting law, which is what the free convolution describes
    exactly; finite-M agreement with network draws is itself a freeness
    check.

    Each layer's D and W are drawn from `rng` on the calling thread, in
    order, while _fim_recursion's worker conjugates the layer before, so
    the rng ends in the same state as a serial loop would leave it. Where
    numpy's OpenBLAS is found W stays as its reflectors, with sigma_l D
    folded into its scale, and Q is never formed; elsewhere W D is formed
    from sample_haar_orthogonal.
    """

    def layers():
        work = np.empty(_openblas.lwork(M)) if _openblas.found() else None
        for ell, nu in enumerate(schedule.jacobians, start=1):
            d = math.sqrt(nu.gamma) * (rng.random(M) < nu.alpha).astype(float)
            if work is None:
                wd = sample_haar_orthogonal(M, rng)
                wd *= schedule.sigma[ell]
                wd *= d[None, :]
                yield wd, None, schedule.q[ell]
            else:
                f, tau, signs = _householder_draw(M, rng, work)
                signs *= schedule.sigma[ell]
                yield _Householder(f, tau, signs, work), d, schedule.q[ell]

    return _fim_recursion(M, schedule.q[0], layers())
