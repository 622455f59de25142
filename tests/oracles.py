"""Reference computations that only the tests use.

Each one is written independently of the code it checks: the stored
forward pass and layer recursion that `rmtsim.dual_fim` must reproduce
bit for bit, the serial matrix-model loop that `rmtsim.model_fim_sample`
must reproduce bit for bit, the dense parameter Jacobian behind H_L and
the conditional FIM, and an alternating-moment test of asymptotic
freeness. The one exception is the cold-start subordination solve, which
differs from `freeconv._subordination_solve` only in where Newton starts
and shares its Cauchy evaluator and Newton loop.
"""

import math
from typing import NamedTuple

import numpy as np

from isospec.freeconv import _BLOCK_BYTES, _WALK_LEVELS, _h_of, _newton
from isospec.meanfield import activation_apply, activation_deriv
from isospec.rmtsim import ForwardTrace, OrthogonalNet, sample_haar_orthogonal
from isospec.specmeasure import NumericalError

DENSE_MAX_WIDTH = 16
DENSE_MAX_DEPTH = 4


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
        cur = activation_apply(net.activation, h)
        xs.append(cur)
        if ell < net.depth:
            ds.append(activation_deriv(net.activation, h))
    return ForwardTrace(x=xs, h=hs, deriv=ds, q_hat=qs)


def reference_dual_fim(net: OrthogonalNet, x: np.ndarray) -> np.ndarray:
    """H_L by the layer recursion, run after the stored forward pass."""
    trace = reference_trace(net, x)
    h = trace.q_hat[0] * np.eye(net.width)
    for ell in range(1, net.depth):
        d = trace.deriv[ell - 1]
        w = net.weights[ell]
        inner = w @ (d[:, None] * h * d[None, :]) @ w.T
        h = trace.q_hat[ell] * np.eye(net.width) + inner
    return (h + h.T) / 2.0


def reference_model_fim(M: int, q, sigma, alpha, gamma, rng: np.random.Generator) -> np.ndarray:
    """The matrix model H <- q_l I + (W D) H (W D)^T, one layer after another
    on one thread, drawing D then W from `rng` for each layer."""
    h = float(q[0]) * np.eye(M)
    for ell in range(1, len(q)):
        d = math.sqrt(gamma[ell - 1]) * (rng.random(M) < alpha[ell - 1]).astype(float)
        wd = sigma[ell] * sample_haar_orthogonal(M, rng) * d[None, :]
        h = float(q[ell]) * np.eye(M) + wd @ h @ wd.T
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
    # delta_{L->l} = W_L D_{L-1} ... W_{l+1} D_l, the identity at l = L
    chains = [np.eye(net.width)]
    for ell in range(net.depth - 1, 0, -1):
        chains.append((chains[-1] @ net.weights[ell]) * trace.deriv[ell - 1][None, :])
    chains.reverse()
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
    """`freeconv._subordination_solve` started cold from w = h_mu(z).

    Same acceptance tests, walk and return values; with it in place of
    the solver, `free_mult_conv_two_atom` computes what it did before the
    Picard warm start.
    """
    z = np.asarray(z, dtype=complex)
    rows = max(1, min(z.size, _BLOCK_BYTES // (16 * locs.size)))
    work = np.empty((rows, locs.size), dtype=complex)
    masses = masses.astype(complex)
    w = _h_of(locs, masses, z, work)[0]
    iters = np.zeros(z.size, dtype=int)
    done, slope = _newton(locs, masses, nu, z, w, iters, np.arange(z.size), work, tol, max_iter)
    accepted = np.zeros(z.size, dtype=bool)
    w1 = w[done] + 1.0
    ok = ((w1 / z[done]).imag <= 1e-8) & (np.abs(slope) <= 1.0) & (np.abs(w1) > 1e-6)
    accepted[done[ok]] = True

    walk = np.flatnonzero(~accepted)
    top = 8.0 * (np.abs(z.real) + 1.0)
    zz = z.real + 1j * top
    w[walk] = _h_of(locs, masses, zz[walk], work)[0]
    for frac in np.linspace(0.0, 1.0, _WALK_LEVELS):
        zz.imag[walk] = top[walk] * (z.imag[walk] / top[walk]) ** frac
        level_tol = tol if frac == 1.0 else math.sqrt(tol)
        walk, _ = _newton(locs, masses, nu, zz, w, iters, walk, work, level_tol, max_iter)
    walk = walk[((w[walk] + 1.0) / z[walk]).imag <= 1e-8]
    accepted[walk] = True
    return w, iters, accepted, walk.size
