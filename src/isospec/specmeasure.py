"""Compactly supported probability measures on the line: atoms plus grids.

A :class:`SpectralMeasure` is a finite list of atoms together with an
optional absolutely continuous part sampled on a uniform grid. The module
provides the calculus the free-probability recursions need: Stieltjes
inversion of a Cauchy transform, affine pushforwards, moments, and an L1
distance for scoring agreement between predicted and measured spectra.

All types are immutable after construction and all operations are pure,
so everything here is safe to evaluate concurrently.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Total mass must match 1 to this tolerance for any constructed measure.
MASS_TOL = 1e-6

# Coarser grids cannot resolve the densities we propagate.
MIN_GRID_COUNT = 64

# A bin width that cuts a span into more bins than this is refused before
# any array of that many bins is made.
MAX_BINS = 100_000


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
    support_max: float = field(init=False)

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
        mass = self.mass()
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass} deviates from 1 beyond {MASS_TOL}")
        support = [loc for loc, _ in atoms]
        if self.density is not None:
            support.append(self.density.right)
        object.__setattr__(self, "support_max", max(support))

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

    def atom_weight(self, x: float) -> float:
        """Weight of the atom within 1e-9 (1 + |x|) of x, or 0 if none."""
        for loc, w in self.atoms:
            if abs(loc - x) <= 1e-9 * (1.0 + abs(x)):
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

    @classmethod
    def from_json(cls, text: str) -> "SpectralMeasure":
        """The measure of a to_json_dict record written as JSON."""
        data = json.loads(text)
        density = None
        if data.get("density") is not None:
            d = data["density"]
            density = GridDensity(d["left"], d["right"], np.asarray(d["values"]))
        return cls(atoms=tuple((a[0], a[1]) for a in data["atoms"]), density=density)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


def affine_pushforward(mu: SpectralMeasure, a: float, b: float) -> SpectralMeasure:
    """Pushforward of mu under x -> b + a*x; a must be nonzero.

    Atom locations map through the affine map with weights unchanged;
    density supports map likewise with values rescaled by 1/|a| so the
    total mass is preserved. Atoms that land on one float merge, and a
    density whose image has zero width in floats becomes an atom of its
    mass there.
    """
    a, b = float(a), float(b)
    if a == 0.0:
        raise ValueError("scale a = 0 gives a degenerate pushforward")
    atoms = {}
    for loc, w in mu.atoms:
        key = b + a * loc
        atoms[key] = atoms.get(key, 0.0) + w
    density = None
    if mu.density is not None:
        lo, hi = sorted((b + a * mu.density.left, b + a * mu.density.right))
        if lo == hi:
            atoms[lo] = atoms.get(lo, 0.0) + mu.density.mass()
        else:
            values = mu.density.values if a > 0 else mu.density.values[::-1]
            density = GridDensity(lo, hi, values / abs(a))
    return SpectralMeasure(atoms=tuple(sorted(atoms.items())), density=density)


def stieltjes_invert(z, g, atoms=(), bound: float = math.inf) -> tuple:
    """(density, mass defect, worst clamped value) read off a Cauchy transform
    `g` sampled on the strip z = x + i*eps over a uniform grid.

    Each atom's term w / (z - loc) is subtracted from a copy of `g`, the rest
    read as -Im g / pi, clamped at 0 and cut at x <= bound. NumericalError
    unless the defect |atom weights + trapezoid mass - 1| is at most 1e-2 (a
    NaN fails too); else the density is rescaled to the mass the atoms leave,
    which folds back what the strip smeared off the grid and under the atoms.
    """
    g = np.array(g, dtype=complex)
    for loc, w in atoms:
        g -= w / (z - loc)
    raw = -g.imag / np.pi
    clamped = max(0.0, float(-raw.min()))
    raw = np.maximum(raw, 0.0)
    keep = z.real <= bound + 1e-12
    x_kept, raw = z.real[keep], raw[keep]
    raw_mass = float(np.trapezoid(raw, dx=x_kept[1] - x_kept[0]))
    atom_mass = sum(w for _, w in atoms)
    defect = abs(atom_mass + raw_mass - 1.0)
    if not defect <= 1e-2:
        raise NumericalError(f"mass defect {defect:.3e} after convolution")
    values = raw * ((1.0 - atom_mass) / raw_mass)
    return GridDensity(float(x_kept[0]), float(x_kept[-1]), values), defect, clamped


def moment(mu: SpectralMeasure, k: int) -> float:
    """k-th moment: atom sum plus trapezoid quadrature of the density."""
    if k < 0 or k != int(k):
        raise ValueError("moment order must be a nonnegative integer")
    total = sum(w * loc**k for loc, w in mu.atoms)
    if mu.density is not None:
        total += mu.density.moment(int(k))
    return float(total)


def check_bin_width(lo: float, hi: float, bin_width: float) -> None:
    """Raise ValueError unless bin_width is positive and cuts [lo, hi]
    into fewer than MAX_BINS bins."""
    lo, hi = float(lo), float(hi)
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    # Python floats overflow to inf without a warning, and inf fails
    if not ((hi - lo) / bin_width < MAX_BINS and math.isfinite(lo / bin_width)):
        raise ValueError(
            f"bin width {bin_width:g} cuts [{lo:g}, {hi:g}] into more than {MAX_BINS} bins"
        )


def bin_grid(lo: float, hi: float, bin_width: float) -> tuple:
    """(origin, n_bins) of the bins of width bin_width that cover [lo, hi],
    their edges at integer multiples of bin_width; see check_bin_width."""
    check_bin_width(lo, hi, bin_width)
    origin = math.floor(lo / bin_width) * bin_width
    return origin, max(int(math.ceil((hi - origin) / bin_width)) + 1, 1)


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
    half-open bin (bin_grid). Identical measures give 0, disjoint
    supports give 2.
    """
    lo = min(mu.support_min(), nu.support_min())
    hi = max(mu.support_max, nu.support_max)
    origin, n_bins = bin_grid(lo, hi, bin_width)
    p = _bin_masses(mu, origin, bin_width, n_bins)
    q = _bin_masses(nu, origin, bin_width, n_bins)
    return float(np.abs(p - q).sum())
