"""Compactly supported probability measures on the line: atoms plus grids.

A :class:`SpectralMeasure` is a finite list of atoms together with an
optional absolutely continuous part sampled on a uniform grid. The module
provides the calculus the free-probability recursions need: Cauchy
transforms, Stieltjes inversion, affine pushforwards, moments, and an L1
distance for scoring agreement between predicted and measured spectra.

All types are immutable after construction and all operations are pure,
so everything here is safe to evaluate concurrently.
"""

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Total mass must match 1 to this tolerance for any constructed measure.
MASS_TOL = 1e-6

# Coarser grids cannot resolve the densities we propagate.
MIN_GRID_COUNT = 64

# Extrapolated point masses below this threshold are treated as "no atom":
# they sit below the resolution of the default grid and strip height.
ATOM_THRESHOLD = 1e-3


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Nonnegative density samples on a uniform grid over [left, right].

    The samples are interpreted through the trapezoid rule: integrals,
    moments, and the CDF all treat `values` as a piecewise linear
    function. Constructors that need an exact integral therefore store
    locally averaged (cell mass / cell width) values rather than raw
    pointwise samples.
    """

    left: float
    right: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "right", float(self.right))
        if not self.left < self.right:
            raise ValueError(f"need left < right, got [{self.left}, {self.right}]")
        if values.ndim != 1 or values.size < MIN_GRID_COUNT:
            raise ValueError(f"need >= {MIN_GRID_COUNT} grid values, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        values.setflags(write=False)

    @property
    def grid_count(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return (self.right - self.left) / (self.grid_count - 1)

    def grid(self) -> np.ndarray:
        return np.linspace(self.left, self.right, self.grid_count)

    def mass(self) -> float:
        return float(np.trapezoid(self.values, dx=self.step))

    def moment(self, k: int) -> float:
        x = self.grid()
        return float(np.trapezoid(self.values * x**k, dx=self.step))

    def cdf(self, x) -> np.ndarray:
        """Integral of the piecewise linear density from `left` to x."""
        x = np.asarray(x, dtype=float)
        grid = self.grid()
        cum = np.concatenate(
            [[0.0], np.cumsum((self.values[1:] + self.values[:-1]) * 0.5 * self.step)]
        )
        xc = np.clip(x, self.left, self.right)
        idx = np.clip(((xc - self.left) / self.step).astype(int), 0, self.grid_count - 2)
        t = xc - grid[idx]
        slope = (self.values[idx + 1] - self.values[idx]) / self.step
        partial = self.values[idx] * t + 0.5 * slope * t * t
        return cum[idx] + partial

    @classmethod
    def from_cell_masses(cls, left: float, right: float, masses) -> "GridDensity":
        """Build a density whose trapezoid integral equals sum(masses) exactly.

        `masses` holds the measure of each node's cell: half cells at the
        two endpoints, full cells in between. Dividing by the trapezoid
        weights makes the quadrature reproduce the masses identically,
        which keeps edge singularities from leaking mass.
        """
        masses = np.asarray(masses, dtype=float)
        n = masses.size
        h = (right - left) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
        return cls(left, right, np.maximum(masses, 0.0) / weights)


def _as_atom_tuple(atoms) -> tuple:
    out = []
    for loc, w in atoms:
        out.append((float(loc), float(w)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Probability measure = atoms + optional gridded density.

    Invariants enforced at construction: atom weights nonnegative, atom
    locations strictly increasing, total mass 1 within 1e-6, and
    `support_max` equal to the right end of the support.
    """

    atoms: tuple
    density: GridDensity | None = None
    support_max: float = None  # computed; do not pass

    def __post_init__(self):
        atoms = _as_atom_tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for loc, w in atoms:
            if not (math.isfinite(loc) and math.isfinite(w)):
                raise ValueError("atoms must be finite")
            if w < 0:
                raise ValueError(f"atom weight {w} at {loc} is negative")
        locs = [loc for loc, _ in atoms]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ValueError("atom locations must be strictly increasing")
        mass = sum(w for _, w in atoms)
        if self.density is not None:
            mass += self.density.mass()
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass} deviates from 1 beyond {MASS_TOL}")
        support = [loc for loc, _ in atoms]
        if self.density is not None:
            support.append(self.density.right)
        if not support:
            raise ValueError("measure has no support")
        computed = max(support)
        if self.support_max is not None and abs(self.support_max - computed) > 1e-12:
            raise ValueError("support_max does not match the actual support")
        object.__setattr__(self, "support_max", computed)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def dirac(cls, x: float) -> "SpectralMeasure":
        return cls(atoms=((float(x), 1.0),))

    @classmethod
    def from_atoms(cls, pairs, density: GridDensity | None = None) -> "SpectralMeasure":
        """Sort atom pairs, merge duplicates, and drop zero weights."""
        merged: dict = {}
        for loc, w in pairs:
            loc, w = float(loc), float(w)
            merged[loc] = merged.get(loc, 0.0) + w
        kept = tuple(sorted((loc, w) for loc, w in merged.items() if w > 1e-12))
        return cls(atoms=kept, density=density)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def mass(self) -> float:
        m = sum(w for _, w in self.atoms)
        if self.density is not None:
            m += self.density.mass()
        return m

    def atom_mass(self) -> float:
        return sum(w for _, w in self.atoms)

    def atom_weight(self, x: float, tol: float = 1e-9) -> float:
        """Weight of the atom at x, or 0 if no atom sits there."""
        for loc, w in self.atoms:
            if abs(loc - x) <= tol * (1.0 + abs(x)):
                return w
        return 0.0

    def support_min(self) -> float:
        lo = [loc for loc, _ in self.atoms]
        if self.density is not None:
            lo.append(self.density.left)
        return min(lo)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {"atoms": [[loc, w] for loc, w in self.atoms]}
        if self.density is None:
            out["density"] = None
        else:
            out["density"] = {
                "left": self.density.left,
                "right": self.density.right,
                "values": self.density.values.tolist(),
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpectralMeasure":
        density = None
        if data.get("density") is not None:
            d = data["density"]
            density = GridDensity(d["left"], d["right"], np.asarray(d["values"]))
        return cls(atoms=tuple((a[0], a[1]) for a in data["atoms"]), density=density)

    @classmethod
    def from_json(cls, text: str) -> "SpectralMeasure":
        return cls.from_json_dict(json.loads(text))


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def affine_pushforward(mu: SpectralMeasure, a: float, b: float) -> SpectralMeasure:
    """Pushforward of mu under x -> b + a*x; a must be nonzero.

    Atom locations map through the affine map with weights unchanged;
    density supports map likewise with values rescaled by 1/|a| so the
    total mass is preserved.
    """
    a, b = float(a), float(b)
    if a == 0.0:
        raise ValueError("scale a = 0 gives a degenerate pushforward")
    atoms = [(b + a * loc, w) for loc, w in mu.atoms]
    if a < 0:
        atoms.reverse()
    density = None
    if mu.density is not None:
        lo, hi = b + a * mu.density.left, b + a * mu.density.right
        values = mu.density.values / abs(a)
        if a < 0:
            lo, hi = hi, lo
            values = values[::-1]
        density = GridDensity(lo, hi, values)
    return SpectralMeasure(atoms=tuple(atoms), density=density)


def _as_complex_array(z):
    arr = np.asarray(z, dtype=complex)
    if np.any(arr.imag <= 0):
        raise ValueError("cauchy_transform requires Im z > 0")
    return arr


def cauchy_transform(mu: SpectralMeasure, z):
    """G_mu(z) = int (z - t)^{-1} mu(dt) for z in the upper half-plane.

    Accepts a complex scalar or an array of complex values; returns the
    matching shape. The density contribution is the trapezoid quadrature
    on the measure's grid.
    """
    arr = _as_complex_array(z)
    flat = arr.reshape(-1)
    out = np.zeros(flat.shape, dtype=complex)
    for loc, w in mu.atoms:
        out += w / (flat - loc)
    if mu.density is not None:
        grid = mu.density.grid()
        integrand = mu.density.values[None, :] / (flat[:, None] - grid[None, :])
        out += np.trapezoid(integrand, dx=mu.density.step, axis=1)
    out = out.reshape(arr.shape)
    if out.shape == ():
        return complex(out)
    return out


def stieltjes_invert(G, window, grid_count: int = 2048, eps: float | None = None) -> GridDensity:
    """Recover a density on `window` from a Cauchy transform.

    Samples rho(x) = -Im G(x + i*eps) / pi on a uniform grid and clamps
    tiny negative excursions (inversion noise near support edges) at
    zero, logging the worst violation. `eps` defaults to
    max(1e-6, 1e-4 * window width), which balances atom leakage against
    bias in the recovered density.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"bad window [{lo}, {hi}]")
    if eps is None:
        eps = max(1e-6, 1e-4 * (hi - lo))
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.linspace(lo, hi, grid_count)
    z = x + 1j * eps
    try:
        g = np.asarray(G(z), dtype=complex)
    except (TypeError, ValueError):
        g = np.array([complex(G(complex(p))) for p in z])
    if g.shape != z.shape:
        g = np.broadcast_to(g, z.shape).copy()
    bad = ~np.isfinite(g)
    if np.any(bad):
        where = x[bad][:5]
        raise NumericalError(f"non-finite Cauchy transform at x = {where.tolist()}")
    values = -g.imag / np.pi
    worst = float(values.min())
    if worst < 0:
        logger.debug("stieltjes_invert clamped negative density, worst %.3e", worst)
    return GridDensity(lo, hi, np.maximum(values, 0.0))


def atom_weight_from_cauchy(G, c: float, eps_sequence=None) -> float:
    """Point mass of the measure behind G at location c.

    Evaluates (z - c) * G(z) along z = c + i*y for decreasing y and
    extrapolates y -> 0 with the last three points. The limit is the
    atom weight; a regular part contributes O(y). Returns 0 when the
    extrapolation oscillates (no atom detected) or lands below the
    detection threshold.
    """
    if eps_sequence is None:
        eps_sequence = [0.2 * 0.5**k for k in range(6)]
    ys = np.asarray(sorted(eps_sequence, reverse=True), dtype=float)
    if ys.size < 3 or np.any(ys <= 0):
        raise ValueError("need at least three positive strip heights")
    s = np.array([( (1j * y) * complex(G(complex(c, y))) ).real for y in ys])
    # Neville extrapolation to y = 0 through the last three samples.
    y3, s3 = ys[-3:], s[-3:]
    p01 = (y3[0] * s3[1] - y3[1] * s3[0]) / (y3[0] - y3[1])
    p12 = (y3[1] * s3[2] - y3[2] * s3[1]) / (y3[1] - y3[2])
    p012 = (y3[0] * p12 - y3[2] * p01) / (y3[0] - y3[2])
    two_point = (ys[-2] * s[-1] - ys[-1] * s[-2]) / (ys[-2] - ys[-1])
    if not np.isfinite(p012) or abs(p012 - two_point) > 5e-3:
        logger.debug("atom extrapolation unstable at c=%g: %r", c, s.tolist())
        return 0.0
    weight = min(max(float(p012), 0.0), 1.0)
    if weight < ATOM_THRESHOLD:
        return 0.0
    return weight


def moment(mu: SpectralMeasure, k: int) -> float:
    """k-th moment: atom sum plus trapezoid quadrature of the density."""
    if k < 0 or k != int(k):
        raise ValueError("moment order must be a nonnegative integer")
    total = sum(w * loc**k for loc, w in mu.atoms)
    if mu.density is not None:
        total += mu.density.moment(int(k))
    return float(total)


def _bin_masses(mu: SpectralMeasure, origin: float, bin_width: float, n_bins: int) -> np.ndarray:
    masses = np.zeros(n_bins)
    for loc, w in mu.atoms:
        idx = int(np.floor((loc - origin) / bin_width))
        idx = min(max(idx, 0), n_bins - 1)
        masses[idx] += w
    if mu.density is not None:
        edges = origin + bin_width * np.arange(n_bins + 1)
        cdf = mu.density.cdf(edges)
        masses += np.diff(cdf)
        # mass outside the edge range (cannot happen if bins cover support)
        masses[0] += cdf[0]
        masses[-1] += mu.density.mass() - cdf[-1]
    return masses


def distance_L1(mu: SpectralMeasure, nu: SpectralMeasure, bin_width: float) -> float:
    """L1 distance between binned measures; lies in [0, 2].

    Both measures are accumulated on one uniform grid whose edges sit at
    integer multiples of `bin_width`, atoms landing in their containing
    half-open bin. Identical measures give 0, disjoint supports give 2.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    lo = min(mu.support_min(), nu.support_min())
    hi = max(mu.support_max, nu.support_max)
    origin = math.floor(lo / bin_width) * bin_width
    n_bins = max(int(math.ceil((hi - origin) / bin_width)) + 1, 1)
    p = _bin_masses(mu, origin, bin_width, n_bins)
    q = _bin_masses(nu, origin, bin_width, n_bins)
    return float(np.abs(p - q).sum())
