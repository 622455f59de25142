"""Reference computations and helpers that only the tests use.

The references are written independently of the code they check: the
stored forward pass and layer recursion that `rmtsim.dual_fim` must
reproduce bit for bit on explicit weights, the serial matrix-model loop
that `rmtsim.model_fim_sample` must reproduce bit for bit where it forms
each Q and to rounding where it keeps the reflectors, the dense
parameter Jacobian behind H_L and the conditional FIM, and an
alternating-moment test of asymptotic freeness. The cold-start
subordination solve is Newton on the fixed point in w with its own copy
of the Newton loop and the walk; it shares only freeconv's Cauchy
evaluator.

The helpers are not independent: `forward_trace` runs the package's own
forward loop, and `ntk_block_matrix`, the N-sample tangent kernel that
acceptance criterion 5 checks, is built on it. `constant_schedule` is
the one-value-per-layer LayerSchedule many tests start from.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from isospec.freeconv import _BLOCK_BYTES, LayerSchedule, TwoAtomJacobianLaw, _h_of
from isospec.rmtsim import TILE, OrthogonalNet, _finite, _forward_layers, sample_haar_orthogonal
from isospec.specmeasure import NumericalError

DENSE_MAX_WIDTH = 16
DENSE_MAX_DEPTH = 4
NTK_MAX_SIZE = 4096


def constant_schedule(depth: int, q: float, sigma: float, alpha: float, gamma: float):
    """The LayerSchedule with the same q, sigma and Jacobian law at every layer."""
    nu = TwoAtomJacobianLaw(alpha, gamma)
    return LayerSchedule(q=(q,) * depth, sigma=(sigma,) * depth, jacobians=(nu,) * (depth - 1))


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


def forward_trace(net: OrthogonalNet, x: np.ndarray) -> ForwardTrace:
    """Run the network on one input through `rmtsim._forward_layers`,
    recording the full trace; x^L is recorded too."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.width,):
        raise ValueError(f"input must have shape ({net.width},)")
    if not np.linalg.norm(x) > 0:
        raise ValueError("input must be nonzero")
    xs, hs = [], []
    for ell, (_, cur, h) in enumerate(_forward_layers(net.weights, net.activation, x), start=1):
        _finite(h, ell)
        xs.append(cur)
        hs.append(h)
    deriv = [net.activation.deriv(h) for h in hs[:-1]]
    q_hat = [float(cur @ cur) / cur.size for cur in xs]
    xs.append(net.activation.apply(hs[-1]))
    return ForwardTrace(x=xs, h=hs, deriv=deriv, q_hat=q_hat)


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


def reference_trace(net: OrthogonalNet, x: np.ndarray) -> ForwardTrace:
    """The whole forward pass, every layer stored."""
    xs, hs, ds, qs = [x], [], [], []
    cur = x
    for ell in range(1, net.depth + 1):
        qs.append(float(cur @ cur) / net.width)
        h = net.weights[ell - 1] @ cur
        if not np.all(np.isfinite(h)):
            raise NumericalError(f"non-finite preactivation at layer {ell}")
        hs.append(h)
        cur = net.activation.apply(h)
        xs.append(cur)
        if ell < net.depth:
            ds.append(net.activation.deriv(h))
    return ForwardTrace(x=xs, h=hs, deriv=ds, q_hat=qs)


def conjugate_by_panels(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """W h W^T summed as the recursion sums it, out of place: W h by
    TILE-column panels, then (W h) W^T by TILE-row panels.

    BLAS need not sum an entry of a panel's product in the order it sums
    the same entry of the full product, so above TILE the two can differ
    in the last bits at some widths (300 is one).
    """
    M = len(h)
    u = np.hstack([w @ h[:, i : i + TILE] for i in range(0, M, TILE)])
    return np.vstack([u[i : i + TILE] @ w.T for i in range(0, M, TILE)])


def reference_dual_fim(net: OrthogonalNet, x: np.ndarray) -> np.ndarray:
    """H_L by the layer recursion, run after the stored forward pass."""
    trace = reference_trace(net, x)
    h = trace.q_hat[0] * np.eye(net.width)
    for ell in range(1, net.depth):
        d = trace.deriv[ell - 1]
        w = net.weights[ell]
        inner = conjugate_by_panels(w, d[:, None] * h * d[None, :])
        h = trace.q_hat[ell] * np.eye(net.width) + inner
    return (h + h.T) / 2.0


def reference_model_fim(M: int, q, sigma, alpha, gamma, rng: np.random.Generator) -> np.ndarray:
    """The matrix model H <- q_l I + (W D) H (W D)^T, one layer after another
    on one thread, drawing D then W from `rng` for each layer."""
    h = float(q[0]) * np.eye(M)
    for ell in range(1, len(q)):
        d = math.sqrt(gamma[ell - 1]) * (rng.random(M) < alpha[ell - 1]).astype(float)
        wd = sigma[ell] * sample_haar_orthogonal(M, rng) * d[None, :]
        h = float(q[ell]) * np.eye(M) + conjugate_by_panels(wd, h)
    return (h + h.T) / 2.0


def dual_fim_dense(net: OrthogonalNet, x: np.ndarray):
    """(H_L, conditional FIM) from the explicit parameter Jacobian.

    Size-guarded: the conditional FIM is LM^2 x LM^2. The two returns
    satisfy H_L = J J^T / M and I_cond = J^T J, so the nonzero spectrum
    of I_cond / M is exactly that of H_L, with LM^2 - M zeros left over.
    """
    if net.width > DENSE_MAX_WIDTH or net.depth > DENSE_MAX_DEPTH:
        raise ValueError(
            f"dense construction limited to M <= {DENSE_MAX_WIDTH}, L <= {DENSE_MAX_DEPTH}"
        )
    trace = reference_trace(net, x)
    chains = _chain_matrices(net, trace)
    blocks = [np.kron(chains[ell], trace.x[ell][None, :]) for ell in range(net.depth)]
    jac = np.hstack(blocks)
    h = jac @ jac.T / net.width
    cond = jac.T @ jac
    return (h + h.T) / 2.0, (cond + cond.T) / 2.0


class FreenessProbe(NamedTuple):
    M: int
    trials: int
    moments: tuple
    median_abs: float


def freeness_probe(M: int, trials: int, rng: np.random.Generator) -> FreenessProbe:
    """Alternating-moment test of asymptotic freeness.

    Draws a diagonal projection P (iid 0/1 entries) and an independent
    Haar-conjugated diagonal B = W A W^T, centers both in normalized
    trace, and measures tr(P° B° P° B°). Freeness forces the limit to
    vanish, so the magnitudes should shrink as M grows; callers compare
    probes across several M.
    """
    if M < 32:
        raise ValueError("probe needs M >= 32")
    if trials < 1:
        raise ValueError("need at least one trial")
    moments = []
    for _ in range(trials):
        p = (rng.random(M) < 0.5).astype(float)
        a = (rng.random(M) < 0.5).astype(float)
        w = sample_haar_orthogonal(M, rng)
        b = (w * a[None, :]) @ w.T
        p0 = p - p.mean()
        b0 = b - (np.trace(b) / M) * np.eye(M)
        pb = p0[:, None] * b0
        moments.append(float(np.trace(pb @ pb)) / M)
    arr = np.abs(moments)
    return FreenessProbe(M, trials, tuple(moments), float(np.median(arr)))


def reference_subordination_solve(locs, masses, nu, z, *, tol, max_iter):
    """Newton on w = F(w) = h_mu(z S_nu(w)) at every z, started cold from
    w = h_mu(z).

    A root is accepted if it has Im G <= 1e-8 for G = (w + 1) / z,
    attracts F (|F'(w)| <= 1) and has |w + 1| > 1e-6; the last two reject
    the root w = -1, which exists at every z. The other points walk down
    24 levels from Im z = 8 (|x| + 1), started at h_mu(z), and are
    accepted if they converge at every level and end with Im G <= 1e-8.
    Returns w, the Newton steps of each point, the accepted mask and the
    number of points the walk accepted.
    """
    z = np.asarray(z, dtype=complex)
    rows = max(1, min(z.size, _BLOCK_BYTES // (16 * locs.size)))
    work = np.empty((rows, locs.size), dtype=complex)
    masses = masses.astype(complex)
    w = _h_of(locs, masses, z, work)[0]
    iters = np.zeros(z.size, dtype=int)

    def newton(z, idx, tol):
        # updates w and iters in place; returns the converged points and F'(w)
        done, slope = [idx[:0]], [np.empty(0, dtype=complex)]
        a, g = nu.alpha, nu.gamma
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(max_iter):
                if idx.size == 0:
                    break
                wa, za = w[idx], z[idx]
                h, dh = _h_of(locs, masses, za * (wa + 1.0) / (g * (wa + a)), work)
                df = dh * za * (a - 1.0) / (g * (wa + a) ** 2)
                step = (wa - h) / (1.0 - df)
                size = np.abs(step)
                cap = 0.5 * (1.0 + np.abs(wa))
                step = np.where(size > cap, step * (cap / size), step)
                wa = wa - step
                w[idx] = wa
                iters[idx] += 1
                finite = np.isfinite(wa)
                conv = finite & (np.abs(step) <= tol * (1.0 + np.abs(wa)))
                done.append(idx[conv])
                slope.append(df[conv])
                idx = idx[finite & ~conv]
        return np.concatenate(done), np.concatenate(slope)

    done, slope = newton(z, np.arange(z.size), tol)
    accepted = np.zeros(z.size, dtype=bool)
    w1 = w[done] + 1.0
    ok = ((w1 / z[done]).imag <= 1e-8) & (np.abs(slope) <= 1.0) & (np.abs(w1) > 1e-6)
    accepted[done[ok]] = True

    walk = np.flatnonzero(~accepted)
    top = 8.0 * (np.abs(z.real) + 1.0)
    zz = z.real + 1j * top
    w[walk] = _h_of(locs, masses, zz[walk], work)[0]
    for frac in np.linspace(0.0, 1.0, 24):
        zz.imag[walk] = top[walk] * (z.imag[walk] / top[walk]) ** frac
        walk, _ = newton(zz, walk, tol if frac == 1.0 else math.sqrt(tol))
    walk = walk[((w[walk] + 1.0) / z[walk]).imag <= 1e-8]
    accepted[walk] = True
    return w, iters, accepted, walk.size
