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
        back = SpectralMeasure.from_json_dict(mu.to_json_dict())
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
        G = semicircle_cauchy(2.0)
        dens = stieltjes_invert(G, (-2.0, 2.0), grid_count=2048)
        x = dens.grid()
        err = np.max(np.abs(dens.values - semicircle_density(2.0, x)))
        # pointwise 1e-3 away from the edges; edges smeared by the strip
        interior = np.abs(x) < 1.9
        assert np.max(np.abs(dens.values - semicircle_density(2.0, x))[interior]) < 1e-3
        assert dens.mass() == pytest.approx(1.0, abs=2e-3)

    def test_semicircle_l1(self):
        G = semicircle_cauchy(1.0)
        dens = stieltjes_invert(G, (-1.0, 1.0))
        x = dens.grid()
        l1 = np.sum(np.abs(dens.values - semicircle_density(1.0, x))) * dens.step
        assert l1 < 1e-2

    def test_pure_point_nearly_invisible(self):
        # the Cauchy transform of the Dirac mass at 0
        dens = stieltjes_invert(lambda z: 1 / z, (-1.0, 1.0))
        x = dens.grid()
        away = np.abs(x) > 0.1
        assert np.all(dens.values[away] < 1e-2)

    def test_three_layer_arcsine_config(self):
        # alpha_1 = alpha_2 = 1/2, everything else 1: the continuous part of
        # the depth-3 limit law is 1/(2 pi sqrt((x-2)(3-x))) on (2, 3)
        def G(z):
            z = np.asarray(z, dtype=complex)
            root = np.sqrt(z - 2.0) * np.sqrt(z - 3.0)
            return 1.0 / root

        # scale: the arcsine piece carries mass 1/2 here, so invert the
        # half-mass transform and compare to half of the arcsine density
        dens = stieltjes_invert(lambda z: 0.5 * G(z), (1.9, 3.1), grid_count=4096)
        x = dens.grid()
        inside = (x > 2.02) & (x < 2.98)
        ref = 0.5 / (np.pi * np.sqrt((x[inside] - 2.0) * (3.0 - x[inside])))
        assert np.max(np.abs(dens.values[inside] - ref) / ref) < 0.02

    def test_nonfinite_transform_reported(self):
        def bad(z):
            return np.full_like(np.asarray(z, dtype=complex), np.nan)

        with pytest.raises(NumericalError):
            stieltjes_invert(bad, (0.0, 1.0))


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
        G = semicircle_cauchy(2.0)
        dens = stieltjes_invert(G, (-2.0, 2.0), grid_count=4096)
        # normalize by recovered mass so strip smearing cancels
        assert dens.moment(2) / dens.mass() == pytest.approx(1.0, abs=1e-3)


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
