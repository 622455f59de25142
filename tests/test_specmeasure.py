import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isospec.specmeasure import (
    GridDensity,
    NumericalError,
    SpectralMeasure,
    affine_pushforward,
    distance_L1,
    moment,
    stieltjes_invert,
)


def semicircle_cauchy(radius):
    """G(z) = 2(z - sqrt(z-r)sqrt(z+r))/r^2 for the semicircle of radius r.

    The two principal square roots give the branch that is analytic off
    [-r, r] and Herglotz in the upper half-plane.
    """

    def G(z):
        z = np.asarray(z, dtype=complex)
        root = np.sqrt(z - radius) * np.sqrt(z + radius)
        return 2.0 * (z - root) / radius**2

    return G


def strip(lo, hi, grid_count=2048, eps=None):
    """x + i eps over np.linspace(lo, hi, grid_count), with eps by default
    max(1e-6, 1e-4 (hi - lo)), which balances atom leakage against bias."""
    eps = max(1e-6, 1e-4 * (hi - lo)) if eps is None else eps
    return np.linspace(lo, hi, grid_count) + 1j * eps


def semicircle_density(radius, x):
    inside = np.clip(radius**2 - x * x, 0.0, None)
    return 2.0 * np.sqrt(inside) / (np.pi * radius**2)


class TestSpectralMeasure:
    def test_dirac(self):
        mu = SpectralMeasure.dirac(3.0)
        assert mu.atoms == ((3.0, 1.0),)
        assert mu.density is None
        assert mu.support_max == 3.0

    def test_atoms_sorted_and_unique(self):
        mu = SpectralMeasure.from_atoms([(2.0, 0.5), (1.0, 0.5)])
        locs = [loc for loc, _ in mu.atoms]
        assert locs == sorted(locs)
        # raw constructor rejects duplicates; from_atoms merges them
        with pytest.raises(ValueError):
            SpectralMeasure(atoms=((1.0, 0.5), (1.0, 0.5)))
        merged = SpectralMeasure.from_atoms([(1.0, 0.5), (1.0, 0.5)])
        assert merged.atoms == ((1.0, 1.0),)

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            SpectralMeasure.from_atoms([(1.0, 0.4), (2.0, 0.4)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SpectralMeasure.from_atoms([(1.0, -0.1), (2.0, 1.1)])

    def test_support_max_includes_density_edge(self):
        dens = GridDensity(0.0, 2.0, np.full(128, 0.25))
        mu = SpectralMeasure(atoms=((0.5, 0.5),), density=dens)
        assert mu.support_max == 2.0

    def test_atom_weight_lookup(self):
        mu = SpectralMeasure.from_atoms([(0.0, 0.25), (1.5, 0.75)])
        assert mu.atom_weight(1.5) == 0.75
        assert mu.atom_weight(0.7) == 0.0

    def test_json_round_trip(self):
        dens = GridDensity(1.0, 2.0, np.full(64, 0.5))
        mu = SpectralMeasure(atoms=((0.0, 0.5),), density=dens)
        back = SpectralMeasure.from_json(json.dumps(mu.to_json_dict()))
        assert back.atoms == mu.atoms
        assert back.density.left == 1.0
        assert back.density.right == 2.0
        np.testing.assert_allclose(back.density.values, mu.density.values)


class TestGridDensity:
    def test_needs_minimum_grid(self):
        with pytest.raises(ValueError):
            GridDensity(0.0, 1.0, np.ones(8))

    def test_rejects_negative_values(self):
        vals = np.ones(64)
        vals[10] = -0.5
        with pytest.raises(ValueError):
            GridDensity(0.0, 1.0, vals)

    def test_mass_and_moment(self):
        # uniform density on [0, 2]
        dens = GridDensity(0.0, 2.0, np.full(256, 0.5))
        assert dens.mass() == pytest.approx(1.0, abs=1e-12)
        assert dens.moment(1) == pytest.approx(1.0, abs=1e-9)
        assert dens.moment(2) == pytest.approx(4.0 / 3.0, rel=1e-4)

    def test_from_cell_masses_exact_integral(self):
        masses = np.full(100, 0.01)
        dens = GridDensity.from_cell_masses(0.0, 1.0, masses)
        assert dens.mass() == pytest.approx(1.0, abs=1e-14)

    def test_cdf_endpoints(self):
        dens = GridDensity(0.0, 1.0, np.full(64, 1.0))
        assert dens.cdf(0.0) == pytest.approx(0.0, abs=1e-12)
        assert dens.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        assert dens.cdf(0.25) == pytest.approx(0.25, abs=1e-9)


class TestAffinePushforward:
    def test_delta_maps_to_delta(self):
        out = affine_pushforward(SpectralMeasure.dirac(3.0), 2.0, 1.0)
        assert out.atoms == ((7.0, 1.0),)

    def test_identity(self):
        mu = SpectralMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        out = affine_pushforward(mu, 1.0, 0.0)
        assert out.atoms == mu.atoms

    def test_layer_map_example(self):
        # x -> 1 + 0.9 x sends 1/2 d_0 + 1/2 d_1 to 1/2 d_1 + 1/2 d_1.9
        mu = SpectralMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        out = affine_pushforward(mu, 0.9, 1.0)
        locs = [loc for loc, _ in out.atoms]
        np.testing.assert_allclose(locs, [1.0, 1.9], atol=1e-12)
        assert all(w == 0.5 for _, w in out.atoms)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            affine_pushforward(SpectralMeasure.dirac(1.0), 0.0, 1.0)

    def test_density_rescaling_preserves_mass(self):
        dens = GridDensity(0.0, 1.0, np.full(128, 1.0))
        mu = SpectralMeasure(atoms=(), density=dens)
        out = affine_pushforward(mu, 2.5, -1.0)
        assert out.density.left == pytest.approx(-1.0)
        assert out.density.right == pytest.approx(1.5)
        assert out.density.mass() == pytest.approx(1.0, abs=1e-9)

    def test_atoms_landing_on_one_float_merge(self):
        # 1 + 1e-18 x sends 1 and 2 to the same float
        mu = SpectralMeasure.from_atoms([(1.0, 0.25), (2.0, 0.75)])
        assert affine_pushforward(mu, 1e-18, 1.0).atoms == ((1.0, 1.0),)
        assert affine_pushforward(mu, -1e-18, 1.0).atoms == ((1.0, 1.0),)

    def test_density_of_zero_image_width_becomes_an_atom(self):
        # 1 + 2^-60 x sends the density's support [1, 2] to 1.0 and 2^62 to 5
        dens = GridDensity(1.0, 2.0, np.full(128, 0.5))
        mu = SpectralMeasure(atoms=((2.0**62, 0.5),), density=dens)
        out = affine_pushforward(mu, 2.0**-60, 1.0)
        assert out.density is None
        assert out.atoms == ((1.0, dens.mass()), (5.0, 0.5))

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.1, 5.0),
        b=st.floats(-3.0, 3.0),
        w=st.floats(0.05, 0.95),
    )
    def test_pushforward_moment_law(self, a, b, w):
        mu = SpectralMeasure.from_atoms([(0.5, w), (2.0, 1.0 - w)])
        out = affine_pushforward(mu, a, b)
        assert moment(out, 1) == pytest.approx(b + a * moment(mu, 1), abs=1e-9)


class TestStieltjesInvert:
    def test_semicircle_radius_two(self):
        z = strip(-2.0, 2.0, grid_count=2048)
        dens, defect, _ = stieltjes_invert(z, semicircle_cauchy(2.0)(z))
        x = dens.grid()
        # pointwise 1e-3 away from the edges; edges smeared by the strip
        interior = np.abs(x) < 1.9
        assert np.max(np.abs(dens.values - semicircle_density(2.0, x))[interior]) < 1e-3
        # the density comes rescaled to mass 1; the defect is |raw mass - 1|
        assert defect < 2e-3

    def test_semicircle_l1(self):
        z = strip(-1.0, 1.0)
        dens, _, _ = stieltjes_invert(z, semicircle_cauchy(1.0)(z))
        x = dens.grid()
        l1 = np.sum(np.abs(dens.values - semicircle_density(1.0, x))) * dens.step
        assert l1 < 1e-2

    def test_undeclared_atom_fails_the_mass_gate(self):
        # the Cauchy transform 1/z of the Dirac mass at 0 leaves only the
        # strip's smear of it on the grid, far from mass 1
        z = strip(-1.0, 1.0)
        with pytest.raises(NumericalError, match="mass defect 4.3"):
            stieltjes_invert(z, 1 / z)

    def test_three_layer_arcsine_config(self):
        # alpha_1 = alpha_2 = 1/2, everything else 1: the depth-3 limit law
        # is the atom 1/2 at 1 plus half the arcsine law 1/(pi sqrt((x-2)(3-x)))
        # on (2, 3); the grid holds the atom, whose subtraction must leave
        # the arcsine half alone and next to nothing elsewhere
        def G(z):
            return 0.5 / (z - 1.0) + 0.5 / (np.sqrt(z - 2.0) * np.sqrt(z - 3.0))

        z = strip(0.5, 3.1, grid_count=8192)
        dens, defect, _ = stieltjes_invert(z, G(z), atoms=[(1.0, 0.5)])
        assert defect < 1e-2
        assert dens.mass() == pytest.approx(0.5, abs=1e-12)
        x = dens.grid()
        # an atom left in, or added twice, puts hundreds there
        assert np.max(dens.values[x < 1.8]) < 1e-3
        inside = (x > 2.02) & (x < 2.98)
        ref = 0.5 / (np.pi * np.sqrt((x[inside] - 2.0) * (3.0 - x[inside])))
        assert np.max(np.abs(dens.values[inside] - ref) / ref) < 0.02

    def test_nonfinite_transform_reported(self):
        z = strip(0.0, 1.0)
        with pytest.raises(NumericalError):
            stieltjes_invert(z, np.full_like(z, np.nan))


class TestMoment:
    def test_dirac_first_moment(self):
        assert moment(SpectralMeasure.dirac(1.7), 1) == pytest.approx(1.7)

    def test_two_atom_second_moment(self):
        mu = SpectralMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
        assert moment(mu, 2) == pytest.approx(2.0)

    def test_zeroth_moment_is_mass(self):
        dens = GridDensity.from_cell_masses(0.0, 3.0, np.full(200, 1.0 / 200))
        mu = SpectralMeasure(atoms=(), density=dens)
        assert moment(mu, 0) == pytest.approx(1.0, abs=1e-6)

    def test_semicircle_catalan_moment(self):
        z = strip(-2.0, 2.0, grid_count=4096)
        dens, _, _ = stieltjes_invert(z, semicircle_cauchy(2.0)(z))
        # the rescale to mass 1 makes this m2 / m0 of the raw inversion,
        # in which the strip smearing cancels
        assert dens.moment(2) == pytest.approx(1.0, abs=1e-3)


class TestDistanceL1:
    def test_self_distance_zero(self):
        mu = SpectralMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        assert distance_L1(mu, mu, 0.1) == 0.0

    def test_disjoint_supports(self):
        assert distance_L1(
            SpectralMeasure.dirac(0.0), SpectralMeasure.dirac(1.0), 0.1
        ) == pytest.approx(2.0)

    def test_half_overlap(self):
        mu = SpectralMeasure.dirac(0.0)
        nu = SpectralMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        assert distance_L1(mu, nu, 0.1) == pytest.approx(1.0)

    def test_bad_bin_width(self):
        mu = SpectralMeasure.dirac(0.0)
        with pytest.raises(ValueError):
            distance_L1(mu, mu, 0.0)

    def test_bin_count_is_bounded(self):
        mu, nu = SpectralMeasure.dirac(1.0), SpectralMeasure.dirac(2.0)
        assert distance_L1(mu, nu, 2e-5) == pytest.approx(2.0)  # 50001 bins
        # 1e-9 would take ~1e9 bins; 1e-320 overflows x / width even on a point
        for a, b, bin_width in ((mu, nu, 1e-9), (mu, mu, 1e-320)):
            with pytest.raises(ValueError, match="more than 100000 bins"):
                distance_L1(a, b, bin_width)

    @settings(max_examples=30, deadline=None)
    @given(
        w=st.floats(0.05, 0.95),
        shift=st.floats(-1.0, 1.0),
    )
    def test_symmetry_and_range(self, w, shift):
        mu = SpectralMeasure.from_atoms([(0.0, w), (1.0, 1.0 - w)])
        nu = SpectralMeasure.from_atoms([(shift, 0.5), (shift + 2.0, 0.5)])
        d_ab = distance_L1(mu, nu, 0.25)
        d_ba = distance_L1(nu, mu, 0.25)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert 0.0 <= d_ab <= 2.0 + 1e-12
