"""Free multiplicative convolution engine and the layer spectrum recursion.

The forward map for the limit spectrum of the dual conditional Fisher
information is

    mu_{l+1} = (q_l + sigma_{l+1}^2 * .)_* (nu_l boxtimes mu_l),

where nu_l = (1 - alpha_l) delta_0 + alpha_l delta_{gamma_l} is the
squared-Jacobian law of the activation at layer l. The convolution with
such a two-atom law is evaluated through S-transforms: with
h_mu(z) = z G_mu(z) - 1, the unknown w = h_{mu box nu}(z) solves the
subordination fixed point w = h_mu(z * S_nu(w)), after which
G(z) = (w + 1) / z and the density follows by Stieltjes inversion. The
fixed point is found by Newton's method on the whole grid at once; points
whose cold-start root is not the subordination point are continued down
from high above the real axis.
Atoms never come from the numerics: they obey the exact rule
(mu box nu)({ab}) = max(mu({a}) + nu({b}) - 1, 0) for ab != 0, while the
weight at zero is max(mu({0}), nu({0})) by the rank bound on products.

Also here: the closed-form three-layer solution, the max/mean/atom-weight
recursions along a schedule, and their depth-asymptotic limits.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .specmeasure import (
    GridDensity,
    NumericalError,
    SpectralMeasure,
    affine_pushforward,
)

logger = logging.getLogger(__name__)

# Subordination solve: relative Newton step at which a point has
# converged, Newton steps allowed per point at each Im z level (the cold
# start and every level of the walk), the number of levels of the walk,
# and the size of the pole-term blocks of the Cauchy evaluator, small
# enough to stay in cache.
SOLVER_TOL = 1e-12
MAX_ITER = 50
_WALK_LEVELS = 24
_BLOCK_BYTES = 1 << 20
WINDOW_MARGIN = 0.05
DEFAULT_GRID = 2048
MIN_GRID = 128

# Below this magnitude the expm1-based ratio switches to its series.
_SERIES_CUTOFF = 1e-8


@dataclass(frozen=True)
class TwoAtomJacobianLaw:
    """nu = (1 - alpha) delta_0 + alpha delta_gamma, alpha in (0, 1]."""

    alpha: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def as_measure(self) -> SpectralMeasure:
        if self.alpha == 1.0:
            return SpectralMeasure.dirac(self.gamma)
        return SpectralMeasure(atoms=((0.0, 1.0 - self.alpha), (self.gamma, self.alpha)))


@dataclass(frozen=True)
class LayerSchedule:
    """Per-layer scalars driving the spectrum recursion for depth L.

    `q` holds q_0 .. q_{L-1}, `sigma` holds sigma_1 .. sigma_L, and
    `jacobians` holds the laws nu_1 .. nu_{L-1}. sigma_1 never enters the
    measure recursion (the first weight matrix cancels by orthogonality)
    but belongs to the network description.
    """

    q: tuple
    sigma: tuple
    jacobians: tuple

    def __post_init__(self):
        q = tuple(float(v) for v in self.q)
        sigma = tuple(float(v) for v in self.sigma)
        jac = tuple(self.jacobians)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "jacobians", jac)
        if len(q) < 1:
            raise ValueError("schedule needs depth >= 1")
        if len(sigma) != len(q):
            raise ValueError(f"need {len(q)} sigma values, got {len(sigma)}")
        if len(jac) != len(q) - 1:
            raise ValueError(f"need {len(q) - 1} jacobian laws, got {len(jac)}")
        if any(v <= 0 for v in q) or any(v <= 0 for v in sigma):
            raise ValueError("q and sigma entries must be positive")
        for nu in jac:
            if not isinstance(nu, TwoAtomJacobianLaw):
                raise TypeError("jacobians must be TwoAtomJacobianLaw instances")

    @property
    def depth(self) -> int:
        return len(self.q)

    @classmethod
    def constant(cls, depth: int, q: float, sigma: float, alpha: float, gamma: float):
        nu = TwoAtomJacobianLaw(alpha, gamma)
        return cls(q=(q,) * depth, sigma=(sigma,) * depth, jacobians=(nu,) * (depth - 1))


@dataclass(frozen=True)
class AsymptoticRegime:
    """Deep-limit scalars: q = lim q_L, eps1 = lim L(1 - alpha_L),
    eps2 = -lim L log(sigma_L^2 gamma_L); both eps bounded by 1."""

    q: float
    eps1: float
    eps2: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("q must be positive")
        if abs(self.eps1) >= 1 or abs(self.eps2) >= 1:
            raise ValueError("|eps1| and |eps2| must be < 1")


@dataclass(frozen=True)
class AtomTrack:
    """Per-layer support maximum and the weight of the atom sitting there.

    `valid_depth` is the deepest layer for which the atom claim holds
    (beta > 0); beyond it the lambda values still bound the support but
    carry no atom.
    """

    lam: tuple
    beta: tuple
    valid_depth: int

    @property
    def depth(self) -> int:
        return len(self.lam)


@dataclass(frozen=True)
class ConvolutionStats:
    """Diagnostics from one numeric free multiplicative convolution.

    `iterations_*` count Newton steps per grid point, `flagged` holds the
    x of points with no accepted root, and `continued` counts the points
    accepted only after the walk down Im z.
    """

    grid_count: int
    eps: float
    iterations_max: int
    iterations_mean: float
    flagged: tuple
    mass_defect: float
    clamped: float
    continued: int


# the record of a layer that needs no numeric solve
_TRIVIAL_STATS = ConvolutionStats(0, 0.0, 0, 0.0, (), 0.0, 0.0, 0)


class LayerError(NumericalError):
    """A NumericalError at one layer of propagate_schedule.

    `reason` is the failing layer's own message; `measures` and `stats`
    hold the layers before it, which converged.
    """

    def __init__(self, layer: int, reason: str, measures: list, stats: list):
        super().__init__(f"layer {layer}: {reason}")
        self.layer = layer
        self.reason = reason
        self.measures = measures
        self.stats = stats


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------


def s_transform_two_atom(nu: TwoAtomJacobianLaw, z):
    """S_nu(z) = (z + 1) / (gamma (z + alpha)) for the two-atom law."""
    z = complex(z) if np.isscalar(z) else np.asarray(z, dtype=complex)
    pole = np.abs(z + nu.alpha)
    if np.any(pole < 1e-12 * (1.0 + abs(nu.alpha))):
        raise ValueError(f"S-transform pole at z = {-nu.alpha}")
    return (z + 1.0) / (nu.gamma * (z + nu.alpha))


def atom_rule(wa: float, wb: float) -> float:
    """Weight of the product atom: max(wa + wb - 1, 0)."""
    if not (0.0 <= wa <= 1.0 and 0.0 <= wb <= 1.0):
        raise ValueError("atom weights must lie in [0, 1]")
    return max(wa + wb - 1.0, 0.0)


def _atomize(mu: SpectralMeasure):
    """Locations and masses of mu with the density collapsed onto its grid.

    Each grid node receives the mass of its trapezoid cell, so the
    discrete measure has exactly the continuous part's mass and the same
    first moments up to O(step^2). Used to evaluate h_mu inside the
    subordination iteration, where a rational function of ~2k poles is
    both fast and free of quadrature bias near the real axis.
    """
    locs = [loc for loc, _ in mu.atoms]
    masses = [w for _, w in mu.atoms]
    if mu.density is not None:
        d = mu.density
        cell = np.full(d.grid_count, d.step)
        cell[0] = cell[-1] = d.step / 2.0
        locs.extend(d.grid().tolist())
        masses.extend((d.values * cell).tolist())
    return np.asarray(locs), np.asarray(masses)


def _h_of(locs: np.ndarray, masses: np.ndarray, u: np.ndarray, work: np.ndarray):
    """h(u) = u G(u) - 1 and h'(u) for the measure sum_k m_k delta_{x_k}.

    The pole terms 1 / (u - x_k) go into the solve's one complex buffer
    `work`, a cache-sized block of rows at a time, so no call allocates
    large temporaries; `masses` is complex, so G and G' are mat-vecs.
    """
    g = np.empty(u.size, dtype=complex)
    dg = np.empty(u.size, dtype=complex)
    for start in range(0, u.size, work.shape[0]):
        rows = slice(start, start + work.shape[0])
        terms = work[: u[rows].size]
        np.subtract(u[rows, None], locs[None, :], out=terms)
        np.reciprocal(terms, out=terms)
        np.matmul(terms, masses, out=g[rows])
        np.multiply(terms, terms, out=terms)
        np.matmul(terms, masses, out=dg[rows])
    return u * g - 1.0, g - u * dg


def _product_atoms(mu: SpectralMeasure, nu: TwoAtomJacobianLaw) -> list:
    """Exact atoms of mu boxtimes nu.

    Nonzero candidates are products of mu's atoms with gamma, weighted by
    the pairwise rule. The weight at zero is max(mu({0}), nu({0})): the
    pairwise rule undershoots there because a zero of either factor
    forces a zero of the product (rank bound), not just overlapping mass.
    """
    out = {}
    zero_weight = max(mu.atom_weight(0.0), 1.0 - nu.alpha)
    if zero_weight > 0:
        out[0.0] = zero_weight
    for loc, w in mu.atoms:
        if loc == 0.0:
            continue
        w_prod = atom_rule(w, nu.alpha)
        if w_prod > 0:
            key = loc * nu.gamma
            out[key] = out.get(key, 0.0) + w_prod
    return sorted(out.items())


def free_mult_conv_two_atom(
    mu: SpectralMeasure,
    nu: TwoAtomJacobianLaw,
    *,
    grid_count: int = DEFAULT_GRID,
    eps: float | None = None,
    margin: float = WINDOW_MARGIN,
    tol: float = SOLVER_TOL,
    max_iter: int = MAX_ITER,
    return_stats: bool = False,
):
    """Free multiplicative convolution mu boxtimes nu.

    Atoms are placed by the exact rules; the continuous part comes from
    solving the subordination fixed point w = h_mu(z S_nu(w)) on the
    strip Im z = eps over [0, ||mu|| * gamma * (1 + margin)], followed by
    Stieltjes inversion with the atoms' Cauchy terms subtracted.

    The solve runs Newton's method at every grid point from one Picard
    step of the fixed-point map, w = h_mu(z S_nu(h_mu(z))). A root is
    accepted only if it converged, is finite, gives Im G <= 1e-8, attracts
    the fixed-point map (|d/dw h_mu(z S_nu(w))| <= 1) and is not the
    spurious root w = -1 (|w + 1| > 1e-6). Points without such a root are
    solved again along Im z, from 8 (|x| + 1) down to eps, and accepted if
    they converge at every level and end with Im G <= 1e-8. Points that
    are still not accepted are flagged and their G interpolated from the
    accepted neighbors.

    Purely atomic cases (nu = delta_gamma, or mu a single atom) bypass
    the solver.

    Parameters
    ----------
    tol : float
        A point has converged when its Newton step is at most
        tol * (1 + |w|).
    max_iter : int
        Newton steps allowed per point at each Im z level, the cold start
        included. `ConvolutionStats.iterations_*` count all Newton steps
        of a point, and `continued` the points accepted after the walk.
    return_stats : bool
        If True, also return a ConvolutionStats record.

    Raises
    ------
    NumericalError
        If more than 1% of the grid points are flagged, or the recovered
        mass misses 1 by more than 1e-2.
    """
    if mu.support_min() < -1e-12:
        raise ValueError("mu must be supported on the nonnegative axis")
    if grid_count < MIN_GRID:
        raise ValueError(f"grid_count must be at least {MIN_GRID}")

    if nu.alpha == 1.0:
        result = affine_pushforward(mu, nu.gamma, 0.0)
        return (result, _TRIVIAL_STATS) if return_stats else result
    if mu.density is None and len(mu.atoms) == 1:
        loc, _ = mu.atoms[0]
        if loc == 0.0:
            result = SpectralMeasure.dirac(0.0)
        else:
            result = affine_pushforward(nu.as_measure(), loc, 0.0)
        return (result, _TRIVIAL_STATS) if return_stats else result

    atoms = _product_atoms(mu, nu)
    atom_mass = sum(w for _, w in atoms)
    target = 1.0 - atom_mass
    bound = mu.support_max * nu.gamma
    if target < 1e-9 or bound <= 0:
        # nothing continuous left; can happen only in degenerate corners
        result = SpectralMeasure.from_atoms(atoms)
        return (result, _TRIVIAL_STATS) if return_stats else result

    window = bound * (1.0 + margin)
    if eps is None:
        eps = 1e-4 * window
    x = np.linspace(0.0, window, grid_count)
    z = x + 1j * eps

    locs, masses = _atomize(mu)
    w_sol, iters, accepted, continued = _subordination_solve(
        locs, masses, nu, z, tol=tol, max_iter=max_iter
    )
    g = (w_sol + 1.0) / z
    bad = ~accepted
    flagged = x[bad]
    if flagged.size > 0.01 * grid_count:
        raise NumericalError(
            f"subordination failed at {flagged.size}/{grid_count} points, "
            f"first offenders near x = {flagged[:4].tolist()}"
        )
    if flagged.size:
        good = np.flatnonzero(~bad)
        g_interp_re = np.interp(x[bad], x[good], g.real[good])
        g_interp_im = np.interp(x[bad], x[good], g.imag[good])
        g[bad] = g_interp_re + 1j * g_interp_im

    for loc, w in atoms:
        g -= w / (z - loc)
    raw = -g.imag / np.pi
    clamped = max(0.0, float(-raw.min()))
    raw = np.maximum(raw, 0.0)

    # Trim to the exact support bound; the margin zone only catches the
    # strip smearing, whose small mass gets folded back by rescaling.
    keep = x <= bound + 1e-12
    x_kept = x[keep]
    raw = raw[keep]
    raw_mass = float(np.trapezoid(raw, dx=x_kept[1] - x_kept[0]))
    defect = abs(atom_mass + raw_mass - 1.0)
    # the strip smears O(eps) mass past the window edges and under the
    # atoms; renormalizing restores it, but a large defect means the
    # solve itself went wrong
    if defect > 1e-2:
        raise NumericalError(f"mass defect {defect:.3e} after convolution")
    values = raw * (target / raw_mass)
    density = GridDensity(float(x_kept[0]), float(x_kept[-1]), values)
    result = SpectralMeasure.from_atoms(atoms, density=density)
    stats = ConvolutionStats(
        grid_count=grid_count,
        eps=eps,
        iterations_max=int(iters.max()),
        iterations_mean=float(iters.mean()),
        flagged=tuple(flagged.tolist()),
        mass_defect=defect,
        clamped=clamped,
        continued=continued,
    )
    return (result, stats) if return_stats else result


def _subordination_solve(locs, masses, nu, z, *, tol, max_iter):
    """Newton solve of w = F(w) = h_mu(z S_nu(w)) at every z at once.

    The cold start is one Picard step w = F(h_mu(z)), toward the
    subordination point, which is the attracting fixed point of F; where
    that step is not finite it stays at h_mu(z). A root found from the
    cold start is accepted if it has Im G <= 1e-8 for G = (w + 1) / z,
    attracts F (|F'(w)| <= 1), as the subordination point must, and has
    |w + 1| > 1e-6. The last two reject the root w = -1, which exists at
    every z: the attraction test alone cannot at small |z|, where F'(-1)
    shrinks with |z| wherever mu has no atom at 0. The other points,
    mostly in spectral gaps, walk down geometrically from Im z = 8 (|x| + 1),
    where Newton from h_mu(z) finds the physical root, to the strip.
    Returns w, the Newton steps of each point, the accepted mask and the
    number of points the walk accepted.
    """
    z = np.asarray(z, dtype=complex)
    rows = max(1, min(z.size, _BLOCK_BYTES // (16 * locs.size)))
    work = np.empty((rows, locs.size), dtype=complex)
    masses = masses.astype(complex)
    w = _h_of(locs, masses, z, work)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        picard = _h_of(locs, masses, z * (w + 1.0) / (nu.gamma * (w + nu.alpha)), work)[0]
    w = np.where(np.isfinite(picard), picard, w)
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
        # above the strip a step of sqrt(tol) suffices: it leaves an error
        # of order tol, which the next level's first step absorbs
        level_tol = tol if frac == 1.0 else math.sqrt(tol)
        walk, _ = _newton(locs, masses, nu, zz, w, iters, walk, work, level_tol, max_iter)
    walk = walk[((w[walk] + 1.0) / z[walk]).imag <= 1e-8]
    accepted[walk] = True
    return w, iters, accepted, walk.size


def _newton(locs, masses, nu, z, w, iters, idx, work, tol, max_iter):
    """Newton on w - h_mu(z S_nu(w)) at the points `idx`, all at once.

    Updates `w` and `iters` in place. Each step is capped at
    0.5 (1 + |w|) against branch jumps; a point stops when its step is at
    most tol (1 + |w|) or its iterate is not finite. Returns the points
    that converged and F'(w) at their last evaluation.
    """
    a, g = nu.alpha, nu.gamma
    done, slope = [idx[:0]], [np.empty(0, dtype=complex)]
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


# ----------------------------------------------------------------------
# layer recursion
# ----------------------------------------------------------------------


def propagate_layer(
    mu_l: SpectralMeasure,
    nu_l: TwoAtomJacobianLaw,
    sigma_next: float,
    q_l: float,
    *,
    return_stats: bool = False,
    **grid_kwargs,
):
    """One layer of the spectrum recursion:
    (q_l + sigma_next^2 * .)_* (nu_l boxtimes mu_l).

    With `return_stats`, also returns the convolution's ConvolutionStats.
    """
    conv, stats = free_mult_conv_two_atom(mu_l, nu_l, return_stats=True, **grid_kwargs)
    result = affine_pushforward(conv, sigma_next**2, q_l)
    return (result, stats) if return_stats else result


def propagate_schedule(schedule: LayerSchedule, *, return_stats: bool = False, **grid_kwargs):
    """All measures mu_1 .. mu_L along the schedule; mu_1 = delta_{q_0}.

    With `return_stats`, also returns one ConvolutionStats per layer, the
    all-zero record for mu_1 and for layers that need no numeric solve.
    A NumericalError from a layer is raised as a LayerError, which names
    that layer and carries the measures and stats of the layers before it.
    """
    out = [SpectralMeasure.dirac(schedule.q[0])]
    stats = [_TRIVIAL_STATS]
    for ell in range(1, schedule.depth):
        try:
            mu, st = propagate_layer(
                out[-1],
                schedule.jacobians[ell - 1],
                schedule.sigma[ell],
                schedule.q[ell],
                return_stats=True,
                **grid_kwargs,
            )
        except NumericalError as exc:
            raise LayerError(ell + 1, str(exc), out, stats) from exc
        out.append(mu)
        stats.append(st)
    return (out, stats) if return_stats else out


def solve_three_layer(
    q0: float,
    q1: float,
    q2: float,
    sigma2: float,
    sigma3: float,
    alpha1: float,
    alpha2: float,
    gamma1: float,
    gamma2: float,
    grid_count: int = DEFAULT_GRID,
) -> SpectralMeasure:
    """Closed-form limit spectrum of the three-layer dual FIM.

    Atoms: (1 - alpha2) at lambda_min = q2, (alpha2 - alpha1)^+ at
    lambda_mid, (alpha1 + alpha2 - 1)^+ at lambda_max. The density

        rho(x) = sqrt((lambda_plus - x)(x - lambda_minus))
                 / (2 pi (x - lambda_mid)(lambda_max - x))

    lives on [lambda_minus, lambda_plus]. Cell masses are integrated in
    the angular variable x = mid - (width/2) cos(theta), where the
    integrand is smooth even at the inverse-square-root edges, so the
    sampled grid carries the exact continuous mass.
    """
    for name, val in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {val}")
    for name, val in (
        ("q0", q0), ("q1", q1), ("q2", q2),
        ("sigma2", sigma2), ("sigma3", sigma3),
        ("gamma1", gamma1), ("gamma2", gamma2),
    ):
        if not val > 0:
            raise ValueError(f"{name} must be positive, got {val}")

    lam_min = q2
    lam_mid = q2 + sigma3**2 * gamma2 * q1
    root_a = math.sqrt(alpha1 * (1.0 - alpha2))
    root_b = math.sqrt(alpha2 * (1.0 - alpha1))
    base = sigma2**2 * gamma1 * q0
    lam_minus = q2 + sigma3**2 * gamma2 * (q1 + base * (root_a - root_b) ** 2)
    lam_plus = q2 + sigma3**2 * gamma2 * (q1 + base * (root_a + root_b) ** 2)
    lam_max = q2 + sigma3**2 * gamma2 * (q1 + base)

    atom_pairs = [
        (lam_min, 1.0 - alpha2),
        (lam_mid, max(alpha2 - alpha1, 0.0)),
        (lam_max, max(alpha1 + alpha2 - 1.0, 0.0)),
    ]
    target = 1.0 - sum(w for _, w in atom_pairs)

    width = lam_plus - lam_minus
    a0 = lam_minus - lam_mid  # >= 0, zero iff alpha1 == alpha2
    b0 = lam_max - lam_plus  # >= 0, zero iff alpha1 + alpha2 == 1

    theta = np.linspace(0.0, math.pi, 16 * grid_count + 1)
    s2 = np.sin(theta / 2.0) ** 2
    c2 = np.cos(theta / 2.0) ** 2
    den_a = a0 + width * s2
    den_b = b0 + width * c2
    # the sin^2/cos^2 factors cancel analytically against vanishing a0/b0
    if a0 == 0.0 and b0 == 0.0:
        f = np.full_like(theta, 1.0 / (2.0 * math.pi))
    elif a0 == 0.0:
        f = width * c2 / (2.0 * math.pi * den_b)
    elif b0 == 0.0:
        f = width * s2 / (2.0 * math.pi * den_a)
    else:
        f = width**2 * s2 * c2 / (2.0 * math.pi * den_a * den_b)
    cum = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * np.diff(theta))])
    total = cum[-1]
    if abs(total - target) > 1e-6:
        raise NumericalError(
            f"three-layer mass check failed: quadrature {total} vs weight budget {target}"
        )

    x_nodes = np.linspace(lam_minus, lam_plus, grid_count)
    edges = np.concatenate([[lam_minus], (x_nodes[:-1] + x_nodes[1:]) / 2.0, [lam_plus]])
    # theta(x) = arccos(1 - 2 (x - lam_minus) / width) increases with x
    cos_arg = np.clip(1.0 - 2.0 * (edges - lam_minus) / width, -1.0, 1.0)
    theta_edges = np.arccos(cos_arg)
    cdf_edges = np.interp(theta_edges, theta, cum)
    cell_masses = np.maximum(np.diff(cdf_edges), 0.0)
    cell_masses = cell_masses * (target / total)
    density = GridDensity.from_cell_masses(lam_minus, lam_plus, cell_masses)
    return SpectralMeasure.from_atoms(atom_pairs, density=density)


def max_support_track(schedule: LayerSchedule) -> AtomTrack:
    """Support maxima lambda_l and top-atom weights beta_l along a schedule.

    lambda_1 = q_0 and lambda_{l+1} = q_l + sigma_{l+1}^2 gamma_l lambda_l;
    beta_l = 1 - sum_{k<l} (1 - alpha_k). The lambda recursion always
    bounds the support (submultiplicativity); the atom interpretation is
    valid only while beta stays positive, recorded in `valid_depth`.
    """
    lam = [schedule.q[0]]
    beta = [1.0]
    for ell in range(1, schedule.depth):
        nu = schedule.jacobians[ell - 1]
        lam.append(schedule.q[ell] + schedule.sigma[ell] ** 2 * nu.gamma * lam[-1])
        beta.append(beta[-1] - (1.0 - nu.alpha))
    valid_depth = 0
    for b in beta:
        if b <= 0:
            break
        valid_depth += 1
    if valid_depth < schedule.depth:
        logger.info("atom track invalid beyond layer %d (beta <= 0)", valid_depth)
    return AtomTrack(lam=tuple(lam), beta=tuple(beta), valid_depth=valid_depth)


def _expm1_ratio(x: float) -> float:
    """(1 - exp(-x)) / x with its removable singularity filled at 0."""
    if abs(x) < _SERIES_CUTOFF:
        return 1.0 - x / 2.0 + x * x / 6.0
    return -math.expm1(-x) / x


def asymptotic_max(regime: AsymptoticRegime) -> float:
    """Deep limit of lambda_max / L: q (1 - exp(-eps2)) / eps2."""
    return regime.q * _expm1_ratio(regime.eps2)


def mean_track(schedule: LayerSchedule) -> list:
    """Means m_1(mu_l) by the recursion
    m_1(mu_{l+1}) = q_l + sigma_{l+1}^2 alpha_l gamma_l m_1(mu_l)."""
    means = [schedule.q[0]]
    for ell in range(1, schedule.depth):
        nu = schedule.jacobians[ell - 1]
        means.append(
            schedule.q[ell] + schedule.sigma[ell] ** 2 * nu.alpha * nu.gamma * means[-1]
        )
    return means


def theta_mean_limit(regime: AsymptoticRegime, ratio_alpha: float) -> float:
    """Deep limit of the mean eigenvalue of the block kernel over width:
    ratio * q (1 - exp(-(eps1 + eps2))) / (eps1 + eps2)."""
    if ratio_alpha < 0 or not math.isfinite(ratio_alpha):
        raise ValueError("ratio_alpha must be finite and nonnegative")
    return ratio_alpha * regime.q * _expm1_ratio(regime.eps1 + regime.eps2)


def di_conditions(alpha_L: float, sigma_L: float, gamma_L: float, L: int):
    """Finite-depth isometry deviations (eps1, eps2) =
    (L (1 - alpha), -L log(sigma^2 gamma))."""
    if alpha_L <= 0 or alpha_L > 1 or sigma_L <= 0 or gamma_L <= 0:
        raise ValueError("need alpha in (0, 1] and positive sigma, gamma")
    return L * (1.0 - alpha_L), -L * math.log(sigma_L**2 * gamma_L)
