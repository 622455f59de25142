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
fixed point is found as the root u = z S_nu(w) of the explicit inverse
map z(u) = gamma u (h_mu(u) + alpha) / (h_mu(u) + 1), by Newton's method
on the whole grid at once; points whose first root is not the
subordination point are continued down from high above the real axis.
Atoms never come from the numerics: they obey the exact rule
(mu box nu)({ab}) = max(mu({a}) + nu({b}) - 1, 0) for ab != 0, while the
weight at zero is max(mu({0}), nu({0})) by the rank bound on products.

Also here: the closed-form three-layer solution, the max/mean/atom-weight
recursions along a schedule, and their depth-asymptotic limits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specmeasure import (
    GridDensity,
    NumericalError,
    SpectralMeasure,
    affine_pushforward,
    stieltjes_invert,
)

# Subordination solve: relative Newton step at which a point has
# converged, Newton steps allowed per point at each Im z level (the start
# at the strip and every level of the walk), the number of levels of the walk,
# and the size of the pole-term blocks of the Cauchy evaluator, small
# enough to stay in cache.
SOLVER_TOL = 1e-12
MAX_ITER = 50
_WALK_LEVELS = 8
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
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")

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
    but belongs to the network description. The recursion, the closed
    form and rmtsim's matrix model all take their laws as one schedule,
    and construction is their one range check.
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
        if not all(0.0 < v < math.inf for v in q + sigma):
            raise ValueError("q and sigma entries must be finite and positive")
        # the recursion scales by sigma^2, which must neither overflow nor underflow
        if not all(0.0 < v * v < math.inf for v in sigma):
            raise ValueError("sigma^2 must be finite and positive in floats")
        for nu in jac:
            if not isinstance(nu, TwoAtomJacobianLaw):
                raise TypeError("jacobians must be TwoAtomJacobianLaw instances")

    @property
    def depth(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class AsymptoticRegime:
    """Deep-limit scalars: q = lim q_L, eps1 = lim L(1 - alpha_L),
    eps2 = -lim L log(sigma_L^2 gamma_L); both eps bounded by 1."""

    q: float
    eps1: float
    eps2: float

    def __post_init__(self):
        if not 0.0 < self.q < math.inf:
            raise ValueError("q must be finite and positive")
        if not (abs(self.eps1) < 1 and abs(self.eps2) < 1):
            raise ValueError("eps1 and eps2 must be finite, with |eps1|, |eps2| < 1")


@dataclass(frozen=True)
class ConvolutionStats:
    """Diagnostics from one numeric free multiplicative convolution.

    `iterations_*` count Newton steps per grid point, and `continued`
    counts the points accepted only after the walk down Im z. `flagged`
    is always empty: a point with no accepted root fails the solve.
    """

    grid_count: int
    iterations_max: int
    iterations_mean: float
    flagged: tuple
    mass_defect: float
    clamped: float
    continued: int


# the record of a layer that needs no numeric solve
_TRIVIAL_STATS = ConvolutionStats(0, 0, 0.0, (), 0.0, 0.0, 0)


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
    return_stats: bool = False,
):
    """Free multiplicative convolution mu boxtimes nu.

    Atoms are placed by the exact rules; the continuous part comes from
    solving the subordination fixed point w = h_mu(z S_nu(w)) on the
    strip Im z = eps over [0, ||mu|| * gamma * (1 + WINDOW_MARGIN)],
    followed by Stieltjes inversion with the atoms' Cauchy terms
    subtracted.

    The solve is Newton's method on z(u) = z at every grid point, in
    u = z S_nu(w), where z(u) = gamma u (h_mu(u) + alpha) / (h_mu(u) + 1)
    is explicit and G = (h_mu(u) + 1) / z. It starts from
    u = z S_nu(h_mu(z)). A root is accepted only if it converged, has
    Im u > 0 and gives Im G <= 1e-8. Points without such a root are solved
    again along Im z, from 8 (|x| + 1) down to eps, and accepted by the
    same rules at the end.

    Purely atomic cases (nu = delta_gamma, or mu a single atom) bypass
    the solver.

    A point has converged when its Newton step is at most
    SOLVER_TOL * (|u| + |z| / gamma); each Im z level allows MAX_ITER
    steps.

    Parameters
    ----------
    return_stats : bool
        If True, also return a ConvolutionStats record.

    Raises
    ------
    NumericalError
        If a grid point has no accepted root, or the recovered mass misses
        1 by more than 1e-2.
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
    target = 1.0 - sum(w for _, w in atoms)
    bound = mu.support_max * nu.gamma
    if target < 1e-9 or bound <= 0:
        # nothing continuous left; can happen only in degenerate corners
        result = SpectralMeasure.from_atoms(atoms)
        return (result, _TRIVIAL_STATS) if return_stats else result

    window = bound * (1.0 + WINDOW_MARGIN)
    if eps is None:
        eps = 1e-4 * window
    x = np.linspace(0.0, window, grid_count)
    z = x + 1j * eps

    locs, masses = _atomize(mu)
    g, iters, continued = _subordination_solve(locs, masses, nu, z)
    # the margin past `bound` only catches strip smearing, folded back by rescaling
    density, defect, clamped = stieltjes_invert(z, g, atoms, bound)
    result = SpectralMeasure.from_atoms(atoms, density=density)
    stats = ConvolutionStats(
        grid_count=grid_count,
        iterations_max=int(iters.max()),
        iterations_mean=float(iters.mean()),
        flagged=(),
        mass_defect=defect,
        clamped=clamped,
        continued=continued,
    )
    return (result, stats) if return_stats else result


def _subordination_solve(locs, masses, nu, z):
    """Newton on z(u) = z at every z at once, with the start, acceptance
    rules and walk that free_mult_conv_two_atom describes.

    The spurious root w = -1 of the fixed point in w is a pole of z(u),
    not a root, and Im u > 0 holds at the subordination point because the
    subordination function maps the upper half-plane into itself. Where
    z S_nu(h_mu(z)) is not finite, and at the top of the walk, Newton
    starts at z / (gamma alpha), the root for large |z|. Returns G, the
    Newton steps of each point and the number of points the walk
    accepted; NumericalError if a point is still not accepted.
    """
    z = np.asarray(z, dtype=complex)
    rows = max(1, min(z.size, _BLOCK_BYTES // (16 * locs.size)))
    work = np.empty((rows, locs.size), dtype=complex)
    masses = masses.astype(complex)
    far = 1.0 / (nu.gamma * nu.alpha)
    h = _h_of(locs, masses, z, work)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = z * (h + 1.0) / (nu.gamma * (h + nu.alpha))
    u = np.where(np.isfinite(u), u, far * z)
    g = np.empty(z.size, dtype=complex)
    iters = np.zeros(z.size, dtype=int)

    def accepted(idx):  # of the converged points idx
        return idx[(u[idx].imag > 0) & (g[idx].imag <= 1e-8)]

    done = _newton(locs, masses, nu, z, u, g, iters, np.arange(z.size), work, SOLVER_TOL)
    ok = np.zeros(z.size, dtype=bool)
    ok[accepted(done)] = True
    walk = np.flatnonzero(~ok)

    top = 8.0 * (np.abs(z.real) + 1.0)
    zz = z.real + 1j * top
    u[walk] = far * zz[walk]
    for frac in np.linspace(0.0, 1.0, _WALK_LEVELS):
        zz.imag[walk] = top[walk] * (z.imag[walk] / top[walk]) ** frac
        # above the strip a step of sqrt(tol) suffices: it leaves an error
        # of order tol, which the next level's first step absorbs
        level_tol = SOLVER_TOL if frac == 1.0 else math.sqrt(SOLVER_TOL)
        walk = _newton(locs, masses, nu, zz, u, g, iters, walk, work, level_tol)
    walk = accepted(walk)
    ok[walk] = True
    if not ok.all():
        raise NumericalError(
            f"subordination failed at {(~ok).sum()}/{z.size} points, "
            f"first offenders near x = {z.real[~ok][:4].tolist()}"
        )
    return g, iters, walk.size


def _newton(locs, masses, nu, z, u, g, iters, idx, work, tol):
    """Newton on z(u) - z at the points `idx`, all at once.

    Updates `u`, `iters` and, where a point converges, `g` in place: G at
    the last iterate, with h_mu carried along the last step to first
    order. Each step is capped at 0.5 (1 + |u|) against branch jumps; a
    point stops when its step is at most tol (|u| + |z| / gamma), a scale
    that holds where G, and with it u, passes near 0, or its iterate is
    not finite. Returns the points that converged.
    """
    a, c = nu.alpha, nu.gamma
    done = [idx[:0]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            if idx.size == 0:
                break
            ua, za = u[idx], z[idx]
            h, dh = _h_of(locs, masses, ua, work)
            h1 = h + 1.0
            ratio = (h + a) / h1
            step = (c * ua * ratio - za) / (c * (ratio + ua * dh * (1.0 - a) / h1**2))
            size = np.abs(step)
            cap = 0.5 * (1.0 + np.abs(ua))
            step = np.where(size > cap, step * (cap / size), step)
            ua = ua - step
            u[idx] = ua
            iters[idx] += 1
            finite = np.isfinite(ua)
            conv = finite & (np.abs(step) <= tol * (np.abs(za) / c + np.abs(ua)))
            g[idx[conv]] = (h[conv] - dh[conv] * step[conv] + 1.0) / za[conv]
            done.append(idx[conv])
            idx = idx[finite & ~conv]
    return np.concatenate(done)


# ----------------------------------------------------------------------
# layer recursion
# ----------------------------------------------------------------------


def propagate_schedule(
    schedule: LayerSchedule, *, return_stats: bool = False, grid_count: int = DEFAULT_GRID
):
    """All measures mu_1 .. mu_L along the schedule: mu_1 = delta_{q_0} and
    mu_{l+1} = (q_l + sigma_{l+1}^2 * .)_* (nu_l boxtimes mu_l).

    With `return_stats`, also returns one ConvolutionStats per layer, the
    all-zero record for mu_1 and for layers that need no numeric solve.
    A NumericalError from a layer is raised as a LayerError, which names
    that layer and carries the measures and stats of the layers before it.
    """
    out = [SpectralMeasure.dirac(schedule.q[0])]
    stats = [_TRIVIAL_STATS]
    for ell in range(1, schedule.depth):
        try:
            conv, st = free_mult_conv_two_atom(
                out[-1], schedule.jacobians[ell - 1], grid_count=grid_count, return_stats=True
            )
            mu = affine_pushforward(conv, schedule.sigma[ell] ** 2, schedule.q[ell])
        except NumericalError as exc:
            raise LayerError(ell + 1, str(exc), out, stats) from exc
        out.append(mu)
        stats.append(st)
    return (out, stats) if return_stats else out


def solve_three_layer(schedule: LayerSchedule, grid_count: int = DEFAULT_GRID) -> SpectralMeasure:
    """Closed-form limit spectrum of a depth-3 schedule's dual FIM.

    Atoms: (1 - alpha2) at lambda_min = q2, (alpha2 - alpha1)^+ at
    lambda_mid, (alpha1 + alpha2 - 1)^+ at lambda_max. The density

        rho(x) = sqrt((lambda_plus - x)(x - lambda_minus))
                 / (2 pi (x - lambda_mid)(lambda_max - x))

    lives on [lambda_minus, lambda_plus]. Cell masses are integrated in
    the angular variable x = mid - (width/2) cos(theta), where the
    integrand is smooth even at the inverse-square-root edges, so the
    sampled grid carries the exact continuous mass. When an alpha is 1
    the atoms carry all the mass and there is no density; when the band
    rounds to zero width, its mass is one more atom at lambda_minus.
    """
    if schedule.depth != 3:
        raise ValueError(f"the closed form needs depth 3, got {schedule.depth}")
    q0, q1, q2 = schedule.q
    _, sigma2, sigma3 = schedule.sigma
    nu1, nu2 = schedule.jacobians
    alpha1, gamma1, alpha2, gamma2 = nu1.alpha, nu1.gamma, nu2.alpha, nu2.gamma

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
    if alpha1 == 1.0 or alpha2 == 1.0:
        return SpectralMeasure.from_atoms(atom_pairs)
    target = 1.0 - sum(w for _, w in atom_pairs)

    width = lam_plus - lam_minus
    if width == 0.0:
        # the band rounds onto one float (a tiny gamma2 puts every lambda
        # at q2): its mass is an atom there
        return SpectralMeasure.from_atoms(atom_pairs + [(lam_minus, target)])
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


def max_support_track(schedule: LayerSchedule) -> tuple:
    """Support maxima lambda_l and top-atom weights beta_l along a
    schedule, as two lists.

    lambda_1 = q_0 and lambda_{l+1} = q_l + sigma_{l+1}^2 gamma_l lambda_l;
    beta_l = 1 - sum_{k<l} (1 - alpha_k). The lambda recursion always
    bounds the support (submultiplicativity); lambda_l carries an atom of
    weight beta_l only while beta_l > 0, and beta never increases.
    """
    lam = [schedule.q[0]]
    beta = [1.0]
    for ell in range(1, schedule.depth):
        nu = schedule.jacobians[ell - 1]
        lam.append(schedule.q[ell] + schedule.sigma[ell] ** 2 * nu.gamma * lam[-1])
        beta.append(beta[-1] - (1.0 - nu.alpha))
    return lam, beta


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
