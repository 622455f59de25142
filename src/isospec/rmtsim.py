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
than two weights; one worker thread conjugates layer l, in H's own
buffer by panels of TILE columns and rows, while the calling thread
draws layer l + 1. Each Haar draw is factored in its own M x M buffer
by the LAPACK routines numpy's QR calls, reached in numpy's bundled
OpenBLAS (see _openblas), so Q keeps np.linalg.qr's bits;
np.linalg.qr itself is the fallback where that library is not found.
The orthogonality check forms its Gram matrix in bands, so neither
needs a second M x M array. Empirical spectral measures feed the
comparison against the free-probability predictions.
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


def _qr(a: np.ndarray) -> tuple:
    """(Q, diag R) of numpy's QR of the square Gaussian `a`.

    Where numpy's OpenBLAS is found, its dgeqrf and dorgqr run in a's own
    buffer, which becomes Q: a is transposed in place so that LAPACK
    reads it column-major, as numpy's QR copies it, and back again. Q and
    diag R get the bits of np.linalg.qr(a), which is the fallback and
    holds about four M x M arrays at once.
    """
    if not _openblas.found():
        q, r = np.linalg.qr(a)
        return q, np.diagonal(r)
    _transpose_in_place(a)
    tau = _openblas.dgeqrf(a.T)
    d = np.diagonal(a).copy()
    _openblas.dorgqr(a.T, tau)
    _transpose_in_place(a)
    return a, d


def sample_haar_orthogonal(M: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed M x M orthogonal matrix.

    QR of a Gaussian matrix with the sign ambiguity fixed by forcing a
    positive triangular diagonal; without the fix numpy's QR biases the
    draw away from uniform. A (probability-zero) near-singular draw is
    resampled. The draw takes one M x M buffer (see _qr).
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    for _ in range(8):
        q, d = _qr(rng.standard_normal((M, M)))
        if np.abs(d).min() < 1e-12 * math.sqrt(M):
            continue
        q *= np.sign(d)
        return q
    raise NumericalError("repeated rank-deficient Gaussian draws")


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
    `W @ x` on that row alone. x^l is formed only when W_{l+1} arrives,
    so the last layer's never is.
    """
    h = None
    for w in weights:
        if h is not None:
            x = activation.apply(h)
        h = np.matmul(w, x[..., None])[..., 0]
        yield w, x, h


def _finite(h: np.ndarray, ell: int) -> None:
    if not np.all(np.isfinite(h)):
        raise NumericalError(f"non-finite preactivation at layer {ell}")


def _fim_step(h: np.ndarray, panel: np.ndarray, layer: list) -> None:
    """One step of the recursion in place: h <- q I + W D h D W^T.

    `layer` is [W, d, q]; d None skips the D scaling, for callers that
    pass W D as W. W h W^T is formed in h's own buffer by two sweeps
    through `panel`, a scratch of M x TILE doubles: each column panel
    h[:, c] <- W h[:, c], which reads only that panel of h, then each row
    panel h[r] <- h[r] W^T. BLAS need not sum a panel's entries in the
    order of the full products W h and (W h) W^T, so above TILE the
    result can differ from theirs in the last bits at some widths. The
    step empties `layer`, so the thread that runs it keeps no weight
    once it returns.
    """
    w, d, q = layer
    layer.clear()
    if d is not None:
        h *= d[:, None]
        h *= d[None, :]
    M = h.shape[0]
    for i in range(0, M, TILE):
        k = min(TILE, M - i)
        u = panel[: M * k].reshape(M, k)
        np.matmul(w, h[:, i : i + k], out=u)
        h[:, i : i + k] = u
    for i in range(0, M, TILE):
        k = min(TILE, M - i)
        u = panel[: k * M].reshape(k, M)
        np.matmul(h[i : i + k], w.T, out=u)
        h[i : i + k] = u
    h.flat[:: M + 1] += q


def _fim_recursion(M: int, q0: float, layers: Iterable) -> np.ndarray:
    """H_L of the recursion from H_1 = q0 I over the (W, d, q) steps in
    `layers`, symmetrized.

    The steps run on one worker thread, in the caller's context (so under
    its numpy error state), with one step in flight: while the worker
    conjugates layer l the calling thread produces layer l + 1, so all
    sampling, checks and forward propagation stay there, in order. A
    failure on either thread stops the recursion; the step in flight is
    always waited for, and its failure, which a serial loop would have
    met first, wins. No thread outlives the call. H and one M x TILE
    panel are allocated once; H is updated and symmetrized in place.
    """
    h = np.zeros((M, M))
    h.flat[:: M + 1] = q0
    panel = np.empty(M * min(M, TILE))
    with ThreadPoolExecutor(1) as pool:
        pending = None
        try:
            for w, d, q in layers:
                if pending is not None:
                    pending.result()
                pending = pool.submit(
                    contextvars.copy_context().run, _fim_step, h, panel, [w, d, q]
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
    hand, plus one M x TILE panel, whatever the depth.
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

    Each layer is drawn, checked as OrthogonalNet checks it and
    forward-propagated on the calling thread while dual_fim's worker
    conjugates the layer before it, so at most two weights are alive and
    the peak memory does not grow with depth. A bad layer stops the draw
    there. The result is bit-identical to dual_fim(net.weights,
    activation, x).
    """
    if np.shape(x) != (width,):
        raise ValueError(f"input must have shape ({width},)")
    sig = layer_sigmas(sigma, depth)
    return dual_fim(_haar_layers(width, sig, seed), activation, x)


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
    consistently). With atom_window set, eigenvalues within that
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
    the rng ends in the same state as a serial loop would leave it.
    """

    def layers():
        for ell, nu in enumerate(schedule.jacobians, start=1):
            d = math.sqrt(nu.gamma) * (rng.random(M) < nu.alpha).astype(float)
            wd = sample_haar_orthogonal(M, rng)
            wd *= schedule.sigma[ell]
            wd *= d[None, :]
            yield wd, None, schedule.q[ell]

    return _fim_recursion(M, schedule.q[0], layers())
