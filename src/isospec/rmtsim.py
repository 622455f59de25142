"""Finite-width random network simulator.

Networks have square Haar-orthogonal weight matrices scaled by sigma and
piecewise-linear activations; the output is the last preactivation. The
central object measured here is the dual conditional Fisher information

    H_L = (1/M) (df/dtheta)(df/dtheta)^T
        = sum_l q_hat_{l-1} delta_{L->l} delta_{L->l}^T,

built by the layer recursion H_{l+1} = q_hat_l I + W_{l+1} D_l H_l D_l
W_{l+1}^T (starting from H_1 = q_hat_0 I), plus the N-sample block
kernel Theta whose diagonal blocks are (M/N) H_L(x_n). The recursion
consumes the forward pass one layer at a time, so a network draw can be
streamed through it without ever holding more than two weights; one
worker thread conjugates layer l while the calling thread draws layer
l + 1.
Eigenvalue reports and empirical spectral measures feed the comparison
against the free-probability predictions.
"""

import contextvars
import math
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .meanfield import ActivationSpec, activation_apply, activation_deriv
from .specmeasure import GridDensity, NumericalError, SpectralMeasure

ORTHO_TOL = 1e-10
SYM_TOL = 1e-8
NTK_MAX_SIZE = 4096


def sample_haar_orthogonal(M: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed M x M orthogonal matrix.

    QR of a Gaussian matrix with the sign ambiguity fixed by forcing a
    positive triangular diagonal; without the fix numpy's QR biases the
    draw away from uniform. A (probability-zero) near-singular draw is
    resampled.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    for _ in range(8):
        a = rng.standard_normal((M, M))
        q, r = np.linalg.qr(a)
        d = np.diagonal(r)
        if np.abs(d).min() < 1e-12 * math.sqrt(M):
            continue
        q *= np.sign(d)
        return q
    raise NumericalError("repeated rank-deficient Gaussian draws")


def normalized_input(M: int, rng: np.random.Generator, q_hat: float = 1.0) -> np.ndarray:
    """Standard Gaussian vector rescaled so that ||x||^2 / M = q_hat."""
    if q_hat <= 0:
        raise ValueError("q_hat must be positive")
    x = rng.standard_normal(M)
    return x * math.sqrt(M * q_hat) / np.linalg.norm(x)


def _haar_layers(width: int, sigma: Iterable, rng: np.random.Generator) -> Iterator:
    """W_l = sigma_l Q_l with Q_l Haar, drawn from `rng` one layer at a time.

    This is OrthogonalNet.sample's draw, in its order; the caller decides
    how many layers stay alive.
    """
    for s in sigma:
        w = sample_haar_orthogonal(width, rng)
        w *= s
        yield w


def _check_layer(w: np.ndarray, s: float, width: int, ell: int) -> None:
    """Raise ValueError unless layer `ell`'s W is width x width and W/s
    is orthogonal: max |(W/s)^T (W/s) - I| < ORTHO_TOL.

    Two M x M temporaries: W/s and its Gram matrix, from which I is
    subtracted and the magnitude taken in place.
    """
    if w.shape != (width, width):
        raise ValueError(f"weight {ell} has shape {w.shape}")
    q = w / s
    gram = q.T @ q
    del q
    gram.flat[:: width + 1] -= 1.0
    defect = np.abs(gram, out=gram).max()
    if defect >= ORTHO_TOL:
        raise ValueError(f"layer {ell}: W/sigma off orthogonal by {defect:.2e}")


def _layer_sigmas(sigma, depth: int) -> tuple:
    """One sigma per layer from a scalar or a per-layer sequence."""
    return tuple(sigma) if np.iterable(sigma) else (float(sigma),) * depth


@dataclass
class OrthogonalNet:
    """Depth-L, width-M network with scaled-orthogonal weights.

    weights[l] is W_{l+1} = sigma_{l+1} Q with Q orthogonal; the
    orthogonality of every W/sigma is checked at construction. Training
    code mutates `weights` afterwards, so the check certifies the
    initial state only.
    """

    width: int
    depth: int
    weights: list
    sigma: tuple
    activation: ActivationSpec
    seed: int | None = None

    def __post_init__(self):
        if self.width < 2 or self.depth < 1:
            raise ValueError("need width >= 2 and depth >= 1")
        self.sigma = tuple(float(s) for s in self.sigma)
        if len(self.weights) != self.depth or len(self.sigma) != self.depth:
            raise ValueError("need one weight matrix and one sigma per layer")
        if any(s <= 0 for s in self.sigma):
            raise ValueError("sigma entries must be positive")
        for ell, (w, s) in enumerate(zip(self.weights, self.sigma), start=1):
            _check_layer(w, s, self.width, ell)

    @classmethod
    def sample(cls, width, depth, activation, sigma=1.0, seed=0):
        """Draw all layers from the Haar measure with one seeded generator."""
        sig = _layer_sigmas(sigma, depth)
        weights = list(_haar_layers(width, sig, np.random.default_rng(seed)))
        return cls(width, depth, weights, sig, activation, seed)

    def copy(self) -> "OrthogonalNet":
        clone = object.__new__(OrthogonalNet)
        clone.width = self.width
        clone.depth = self.depth
        clone.weights = [w.copy() for w in self.weights]
        clone.sigma = self.sigma
        clone.activation = self.activation
        clone.seed = self.seed
        return clone


@dataclass
class ForwardTrace:
    """Everything the backward pass and the FIM recursions need.

    x[0..L] activations (x[0] the input), h[1..L] preactivations stored
    at index l-1, deriv[l-1] = phi'(h^l) for l = 1..L-1, and
    q_hat[l] = ||x^l||^2 / M for l = 0..L-1.
    """

    x: list
    h: list
    deriv: list
    q_hat: list


def _forward_layers(weights: Iterable, activation: ActivationSpec, x: np.ndarray) -> Iterator:
    """The forward pass, one layer at a time: the one forward loop.

    For l = 1, 2, ... takes W_l from `weights` and yields
    (W_l, q_hat_{l-1}, d_{l-1}, h^l, x^l), where q_hat_{l-1} =
    ||x^{l-1}||^2 / M and d_{l-1} = phi'(h^{l-1}) (None at l = 1). Each
    d is formed when the next layer arrives, so the last layer's never is.
    """
    cur = np.asarray(x, dtype=float)
    if not np.linalg.norm(cur) > 0:
        raise ValueError("input must be nonzero")
    h = None
    for ell, w in enumerate(weights, start=1):
        d = None if h is None else activation_deriv(activation, h)
        q = float(cur @ cur) / cur.size
        h = w @ cur
        if not np.all(np.isfinite(h)):
            raise NumericalError(f"non-finite preactivation at layer {ell}")
        cur = activation_apply(activation, h)
        yield w, q, d, h, cur


def forward_trace(net: OrthogonalNet, x: np.ndarray) -> ForwardTrace:
    """Run the network on one input, recording the full trace.

    The network output is the last preactivation h^L; x^L is recorded
    anyway for schedule measurements.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.width,):
        raise ValueError(f"input must have shape ({net.width},)")
    xs, hs, ds, qs = [x], [], [], []
    for _, q, d, h, cur in _forward_layers(net.weights, net.activation, x):
        if d is not None:
            ds.append(d)
        qs.append(q)
        hs.append(h)
        xs.append(cur)
    return ForwardTrace(x=xs, h=hs, deriv=ds, q_hat=qs)


def _fim_step(h: np.ndarray, u: np.ndarray, layer: list) -> None:
    """One step of the recursion in place: h <- q I + W D h D W^T.

    `layer` is [W, d, q]; d None skips the D scaling, for callers that
    pass W D as W. u is an M x M scratch buffer. The step empties
    `layer`, so the thread that runs it keeps no weight once it returns.
    """
    w, d, q = layer
    layer.clear()
    if d is not None:
        h *= d[:, None]
        h *= d[None, :]
    np.matmul(w, h, out=u)
    np.matmul(u, w.T, out=h)
    h.flat[:: h.shape[0] + 1] += q


def _fim_recursion(M: int, q0: float, layers: Iterable) -> np.ndarray:
    """H_L of the recursion from H_1 = q0 I over the (W, d, q) steps in
    `layers`, symmetrized.

    The steps run on one worker thread, in the caller's context (so under
    its numpy error state), with one step in flight: while the worker
    conjugates layer l the calling thread produces layer l + 1, so all
    sampling, checks and forward propagation stay there, in order. A
    failure on either thread stops the recursion; the step in flight is
    always waited for, and its failure, which a serial loop would have
    met first, wins. No thread outlives the call. Two M x M buffers are
    allocated once and updated in place.
    """
    h = np.zeros((M, M))
    h.flat[:: M + 1] = q0
    u = np.empty((M, M))
    with ThreadPoolExecutor(1) as pool:
        pending = None
        try:
            for w, d, q in layers:
                if pending is not None:
                    pending.result()
                pending = pool.submit(contextvars.copy_context().run, _fim_step, h, u, [w, d, q])
        finally:
            if pending is not None:
                pending.result()
    return (h + h.T) / 2.0


def dual_fim(weights: Iterable, activation: ActivationSpec, x: np.ndarray) -> np.ndarray:
    """H_L by the layer recursion, in O(L M^3) time.

    Consumes `weights` (a list, or a generator such as a streamed draw)
    through _forward_layers on the calling thread while _fim_recursion
    conjugates the previous layer on its worker. Each step needs only the
    current W_l and D_{l-1}, so beyond what the caller keeps the working
    memory is two M x M buffers plus the weights of the two layers in
    hand, whatever the depth.
    """
    x = np.asarray(x, dtype=float)
    layers = _forward_layers(weights, activation, x)
    first = next(layers, None)
    if first is None:
        raise ValueError("need at least one layer")
    q0 = first[1]
    del first  # holds W_1, which must not live through the recursion
    return _fim_recursion(x.size, q0, ((w, d, q) for w, q, d, _, _ in layers))


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
    sig = _layer_sigmas(sigma, depth)
    if depth < 1 or len(sig) != depth:
        raise ValueError("need depth >= 1 and one sigma per layer")
    if any(s <= 0 for s in sig):
        raise ValueError("sigma entries must be positive")

    def checked():
        layers = _haar_layers(width, sig, np.random.default_rng(seed))
        # next() rather than zip: zip's and enumerate's cached result
        # tuples would keep the layer before last alive during a draw
        for ell, s in enumerate(sig, start=1):
            w = next(layers)
            _check_layer(w, float(s), width, ell)
            yield w

    return dual_fim(checked(), activation, x)


def _chain_matrices(net: OrthogonalNet, trace: ForwardTrace) -> list:
    """delta_{L->l} = W_L D_{L-1} ... W_{l+1} D_l for l = 1..L (identity at L)."""
    out = [np.eye(net.width)]
    for ell in range(net.depth - 1, 0, -1):
        out.append((out[-1] @ net.weights[ell]) * trace.deriv[ell - 1][None, :])
    out.reverse()
    return out


def ntk_block_matrix(net: OrthogonalNet, inputs: list) -> np.ndarray:
    """N-sample tangent-kernel block matrix Theta (NM x NM).

    Block (m, n) is (M/N) sum_l Sigma_l(m, n) delta_{L->l}(m)
    delta_{L->l}(n)^T with Sigma_l(m, n) = <x^{l-1}(m), x^{l-1}(n)> / M,
    so the diagonal blocks are (M/N) H_L(x_n) and the normalized traces
    satisfy tr(Theta/M) = sum_n tr(H_L(x_n)) / N^2 exactly.
    """
    n_samples = len(inputs)
    if n_samples < 1:
        raise ValueError("need at least one input")
    size = n_samples * net.width
    if size > NTK_MAX_SIZE:
        raise ValueError(f"NM = {size} exceeds the guard {NTK_MAX_SIZE}")
    traces = [forward_trace(net, x) for x in inputs]
    chains = [_chain_matrices(net, t) for t in traces]
    theta = np.zeros((size, size))
    M = net.width
    for m in range(n_samples):
        for n in range(m, n_samples):
            block = np.zeros((M, M))
            for ell in range(net.depth):
                overlap = float(traces[m].x[ell] @ traces[n].x[ell]) / M
                block += overlap * (chains[m][ell] @ chains[n][ell].T)
            block *= M / n_samples
            theta[m * M : (m + 1) * M, n * M : (n + 1) * M] = block
            if n != m:
                theta[n * M : (n + 1) * M, m * M : (m + 1) * M] = block.T
    return theta


@dataclass
class EigenReport:
    """Sorted spectrum of one symmetric matrix plus summary statistics."""

    eigenvalues: np.ndarray
    max: float
    mean: float
    histogram: tuple
    atom_mass_near_max: float

    @classmethod
    def from_eigenvalues(
        cls, vals: np.ndarray, bin_count: int = 64, atom_window: float = 0.01
    ) -> "EigenReport":
        """Summary of an ascending spectrum. atom_mass_near_max is the
        fraction of eigenvalues within `atom_window` (relative) of the top."""
        top = float(vals[-1])
        lo, hi = float(vals[0]), top
        # a near-degenerate spectrum can have hi - lo below what bin_count
        # finite bins can resolve; collapse it to one bin instead
        if hi - lo <= bin_count * np.spacing(max(abs(lo), abs(hi), 1.0)):
            edges = np.array([lo - 0.5, hi + 0.5])
            counts = np.array([len(vals)])
        else:
            counts, edges = np.histogram(vals, bins=bin_count, range=(lo, hi))
        window = atom_window * max(abs(top), 1e-300)
        near = float(np.count_nonzero(vals >= top - window)) / len(vals)
        return cls(
            eigenvalues=vals,
            max=top,
            mean=float(vals.mean()),
            histogram=(edges, counts),
            atom_mass_near_max=near,
        )


def eig_sym(a: np.ndarray, bin_count: int = 64, atom_window: float = 0.01) -> EigenReport:
    """Full spectrum of a symmetric matrix, summarized by EigenReport.

    The input must be symmetric to 1e-8; it is then symmetrized exactly
    before the solve. A handful of recomputed eigenpairs are checked
    against ||A v - lambda v|| <= 1e-8 ||A||.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    asym = np.abs(a - a.T).max()
    if asym >= SYM_TOL:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.2e}")
    sym = (a + a.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    scale = max(np.abs(vals).max(), 1e-300)
    spot = np.linspace(0, len(vals) - 1, min(5, len(vals)), dtype=int)
    for i in spot:
        resid = np.linalg.norm(sym @ vecs[:, i] - vals[i] * vecs[:, i])
        if resid > 1e-8 * scale:
            raise NumericalError(f"eigenpair residual {resid:.2e} exceeds tolerance")
    return EigenReport.from_eigenvalues(vals, bin_count, atom_window)


def empirical_measure(
    report: EigenReport,
    bin_width: float,
    atom_window: float | None = None,
) -> SpectralMeasure:
    """Histogram the spectrum into a unit-mass SpectralMeasure.

    Bin edges sit at integer multiples of bin_width (the same alignment
    distance_L1 uses, so theory-vs-empirical comparisons bin
    consistently). With atom_window set, eigenvalues within that
    relative distance of the maximum become a single atom at their mean
    and only the rest is histogrammed.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    vals = report.eigenvalues
    if len(vals) == 0:
        raise ValueError("empty eigenvalue report")
    total = len(vals)
    atoms = []
    if atom_window is not None:
        window = atom_window * max(abs(report.max), 1e-300)
        mask = vals >= report.max - window
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


def model_fim_sample(
    M: int,
    q: list,
    sigma: list,
    alpha: list,
    gamma: list,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the matrix model behind the spectrum recursion directly.

    Runs H <- q_l I + W D H D W^T with independent Haar W = sigma Q and
    iid diagonal D whose squared entries follow (1-alpha) delta_0 +
    alpha delta_gamma. This replaces the network's correlated
    activations by their limiting law, which is what the free
    convolution describes exactly; finite-M agreement with network
    draws is itself a freeness check.

    Each layer's D and W are drawn from `rng` on the calling thread, in
    order, while _fim_recursion's worker conjugates the layer before, so
    the rng ends in the same state as a serial loop would leave it.
    """
    depth = len(q)
    if len(sigma) != depth or len(alpha) != depth - 1 or len(gamma) != depth - 1:
        raise ValueError("need len(sigma) = len(q) and len(alpha) = len(gamma) = len(q) - 1")

    def layers():
        for ell in range(1, depth):
            d = math.sqrt(gamma[ell - 1]) * (rng.random(M) < alpha[ell - 1]).astype(float)
            wd = sample_haar_orthogonal(M, rng)
            wd *= sigma[ell]
            wd *= d[None, :]
            yield wd, None, float(q[ell])

    return _fim_recursion(M, float(q[0]), layers())
