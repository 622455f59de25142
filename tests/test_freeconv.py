import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import reference_subordination_solve

from isospec import freeconv
from isospec.freeconv import (
    MAX_ITER,
    SOLVER_TOL,
    WINDOW_MARGIN,
    AsymptoticRegime,
    AtomTrack,
    LayerSchedule,
    TwoAtomJacobianLaw,
    asymptotic_max,
    atom_rule,
    di_conditions,
    free_mult_conv_two_atom,
    max_support_track,
    mean_track,
    propagate_layer,
    propagate_schedule,
    s_transform_two_atom,
    solve_three_layer,
    theta_mean_limit,
    _atomize,
    _subordination_solve,
)
from isospec.meanfield import tune_constant_q
from isospec.specmeasure import (
    NumericalError,
    SpectralMeasure,
    affine_pushforward,
    distance_L1,
    moment,
)


class TestTwoAtomJacobianLaw:
    def test_alpha_range_enforced(self):
        TwoAtomJacobianLaw(1.0, 2.0)
        with pytest.raises(ValueError):
            TwoAtomJacobianLaw(0.0, 1.0)
        with pytest.raises(ValueError):
            TwoAtomJacobianLaw(1.2, 1.0)
        with pytest.raises(ValueError):
            TwoAtomJacobianLaw(0.5, -1.0)

    def test_as_measure_mass(self):
        nu = TwoAtomJacobianLaw(0.7, 1.5)
        mu = nu.as_measure()
        assert mu.atom_weight(0.0) == pytest.approx(0.3)
        assert mu.atom_weight(1.5) == pytest.approx(0.7)


class TestLayerSchedule:
    def test_length_consistency(self):
        with pytest.raises(ValueError):
            LayerSchedule(q=(1.0, 1.0), sigma=(1.0,), jacobians=(TwoAtomJacobianLaw(1, 1),))
        with pytest.raises(ValueError):
            LayerSchedule(q=(1.0, 1.0), sigma=(1.0, 1.0), jacobians=())

    def test_constant_builder(self):
        sched = LayerSchedule.constant(4, 1.0, 0.9, 0.95, 1.1)
        assert sched.depth == 4
        assert len(sched.jacobians) == 3
        assert sched.sigma == (0.9,) * 4


class TestSTransform:
    def test_identity_law(self):
        for z in (0.5, 1.0 + 1.0j, -0.2 + 0.3j):
            assert s_transform_two_atom(TwoAtomJacobianLaw(1.0, 1.0), z) == pytest.approx(1.0)

    def test_plug_in_value(self):
        val = s_transform_two_atom(TwoAtomJacobianLaw(0.5, 2.0), 0.5)
        assert val == pytest.approx(0.75)

    def test_large_z_limit(self):
        val = s_transform_two_atom(TwoAtomJacobianLaw(0.5, 1.0), 1e9)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            s_transform_two_atom(TwoAtomJacobianLaw(0.5, 1.0), -0.5)


class TestAtomRule:
    def test_pinned_values(self):
        assert atom_rule(1.0, 1.0) == 1.0
        assert atom_rule(0.9, 0.8) == pytest.approx(0.7)
        assert atom_rule(0.4, 0.5) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(wa=st.floats(0, 1), wb=st.floats(0, 1))
    def test_range_and_monotonicity(self, wa, wb):
        out = atom_rule(wa, wb)
        assert 0.0 <= out <= min(wa, wb) + 1e-12
        assert out == pytest.approx(max(wa + wb - 1.0, 0.0))


class TestFreeMultConv:
    def test_identity_convolution(self):
        out = free_mult_conv_two_atom(SpectralMeasure.dirac(1.3), TwoAtomJacobianLaw(1.0, 1.0))
        assert out.atom_weight(1.3) == pytest.approx(1.0, abs=1e-9)
        assert out.density is None or out.density.mass() < 1e-9

    def test_top_atom_weight_rule(self):
        # mu({2}) = 0.9, nu({1.3}) = 0.8 -> product atom at 2.6, weight 0.7
        mu = SpectralMeasure.from_atoms([(0.0, 0.1), (2.0, 0.9)])
        out = free_mult_conv_two_atom(mu, TwoAtomJacobianLaw(0.8, 1.3))
        assert out.atom_weight(2.6) == pytest.approx(0.7, abs=1e-3)

    def test_arcsine_shape(self):
        # (1/2 d_1 + 1/2 d_2) boxtimes (alpha=1/2, gamma=1):
        # 1/2 d_0 plus density 1/(2 pi sqrt((x-1)(2-x))) on (1, 2)
        mu = SpectralMeasure.from_atoms([(1.0, 0.5), (2.0, 0.5)])
        out = free_mult_conv_two_atom(mu, TwoAtomJacobianLaw(0.5, 1.0))
        assert out.atom_weight(0.0) == pytest.approx(0.5, abs=1e-3)
        x = out.density.grid()
        inside = (x > 1.05) & (x < 1.95)
        ref = 1.0 / (2 * np.pi * np.sqrt((x[inside] - 1.0) * (2.0 - x[inside])))
        l1 = np.sum(np.abs(out.density.values[inside] - ref)) * out.density.step
        assert l1 < 1e-2

    def test_monte_carlo_cross_check(self):
        # conjugate diagonal samples of each law by Haar orthogonals and
        # compare the pooled product spectrum to the numeric convolution
        mu = SpectralMeasure.from_atoms([(1.0, 0.5), (2.0, 0.5)])
        out = free_mult_conv_two_atom(mu, TwoAtomJacobianLaw(0.5, 1.0))
        rng = np.random.default_rng(42)
        M, pooled = 1000, []
        for _ in range(3):
            a = np.where(rng.random(M) < 0.5, 1.0, 2.0)
            b = (rng.random(M) < 0.5).astype(float)
            qmat, r = np.linalg.qr(rng.standard_normal((M, M)))
            qmat *= np.sign(np.diag(r))
            conj = (qmat * a) @ qmat.T
            sb = np.sqrt(b)
            pooled.append(np.linalg.eigvalsh((sb[:, None] * conj) * sb[None, :]))
        vals = np.concatenate(pooled)
        width = 0.05
        edges = np.arange(-0.025, 2.075 + width / 2, width)
        emp, _ = np.histogram(vals, bins=edges)
        emp = emp / len(vals)
        theo = np.zeros(len(edges) - 1)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            for loc, w in out.atoms:
                if lo <= loc < hi:
                    theo[i] += w
            if out.density is not None:
                a_, b_ = max(lo, out.density.left), min(hi, out.density.right)
                if a_ < b_:
                    theo[i] += out.density.cdf(b_) - out.density.cdf(a_)
        assert np.abs(emp - theo).sum() < 0.05

    def test_support_bound(self):
        mu = SpectralMeasure.from_atoms([(0.5, 0.3), (1.0, 0.3), (2.5, 0.4)])
        nu = TwoAtomJacobianLaw(0.7, 1.4)
        out = free_mult_conv_two_atom(mu, nu)
        assert out.support_max <= 2.5 * 1.4 + 1e-6

    def test_mass_conserved(self):
        # a gapped measure: every grid point must end on the Herglotz
        # branch, the gaps through the walk down Im z
        mu = SpectralMeasure.from_atoms([(0.4, 0.25), (1.1, 0.5), (2.0, 0.25)])
        nu = TwoAtomJacobianLaw(0.6, 0.9)
        out, stats = free_mult_conv_two_atom(mu, nu, return_stats=True)
        mass = sum(w for _, w in out.atoms)
        if out.density is not None:
            mass += out.density.mass()
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert stats.flagged == ()
        window = mu.support_max * nu.gamma * (1.0 + WINDOW_MARGIN)
        z = np.linspace(0.0, window, stats.grid_count) + 1j * stats.eps
        locs, masses = _atomize(mu)
        w, _, accepted, continued = _subordination_solve(
            locs, masses, nu, z, tol=SOLVER_TOL, max_iter=MAX_ITER
        )
        assert accepted.all()
        assert continued == stats.continued > 0
        assert np.all(((w + 1.0) / z).imag <= 1e-8)

    def test_spurious_root_is_not_accepted(self):
        # layer 5 of `theory --depth 5 --grid 512` at the default schedule:
        # nu's zero atom puts an atom at 0 that mu_4 lacks, and near x = 0
        # the cold start converges to the root w = -1, which attracts there
        schedule = LayerSchedule.constant(5, 1.0, 1.0, 0.75, 1.0)
        mu = SpectralMeasure.dirac(schedule.q[0])
        for ell in range(1, 4):
            conv, stats = free_mult_conv_two_atom(
                mu, schedule.jacobians[ell - 1], grid_count=512, return_stats=True
            )
            assert stats.clamped == 0.0
            mu = affine_pushforward(conv, schedule.sigma[ell] ** 2, schedule.q[ell])
        nu = schedule.jacobians[3]
        window = mu.support_max * nu.gamma * (1.0 + WINDOW_MARGIN)
        z = np.linspace(0.0, window, 512) + 1j * (1e-4 * window)
        locs, masses = _atomize(mu)
        w, _, accepted, _ = _subordination_solve(
            locs, masses, nu, z, tol=SOLVER_TOL, max_iter=MAX_ITER
        )
        assert accepted.sum() > 0.99 * z.size
        assert np.all(np.abs(w[accepted] + 1.0) > 1e-6)

    def test_m1_multiplicativity(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            locs = np.sort(rng.uniform(0.2, 3.0, size=3))
            ws = rng.dirichlet(np.ones(3))
            mu = SpectralMeasure.from_atoms(list(zip(locs.tolist(), ws.tolist())))
            alpha = float(rng.uniform(0.4, 0.95))
            gam = float(rng.uniform(0.6, 1.8))
            window = float(locs[-1]) * gam * 1.05
            out = free_mult_conv_two_atom(
                mu, TwoAtomJacobianLaw(alpha, gam), grid_count=8192, eps=1e-5 * window
            )
            expected = moment(mu, 1) * alpha * gam
            assert moment(out, 1) == pytest.approx(expected, rel=1e-3)

    def test_solver_failure_raises(self):
        mu = SpectralMeasure.from_atoms([(1.0, 0.5), (2.0, 0.5)])
        with pytest.raises(NumericalError):
            free_mult_conv_two_atom(mu, TwoAtomJacobianLaw(0.5, 1.0), max_iter=1)

    def test_return_stats(self):
        mu = SpectralMeasure.from_atoms([(1.0, 0.5), (2.0, 0.5)])
        nu = TwoAtomJacobianLaw(0.5, 1.0)
        out, stats = free_mult_conv_two_atom(mu, nu, return_stats=True)
        assert stats.grid_count == 2048
        assert len(stats.flagged) <= 0.01 * stats.grid_count
        assert abs(stats.mass_defect) < 1e-2
        # no Newton solve reached the cap: ten times the cap changes nothing
        roomy, roomy_stats = free_mult_conv_two_atom(
            mu, nu, max_iter=10 * MAX_ITER, return_stats=True
        )
        assert roomy_stats == stats
        assert roomy.to_json_dict() == out.to_json_dict()
        assert 0 < stats.continued < stats.grid_count

    def test_density_positive_inside_support(self):
        # mu_2 of the default depth-3 schedule; the closed form's density
        # sits on [lambda_-, lambda_+] = 1 + the convolution's support. A
        # solver that accepts the root w = -1 (G = 0) there zeroes it.
        mu = SpectralMeasure.from_atoms([(1.0, 0.25), (2.0, 0.75)])
        out = free_mult_conv_two_atom(mu, TwoAtomJacobianLaw(0.75, 1.0))
        closed = solve_three_layer(1, 1, 1, 1, 1, 0.75, 0.75, 1.0, 1.0)
        lo, hi = closed.density.left - 1.0, closed.density.right - 1.0
        x = out.density.grid()
        inside = (x > lo) & (x < hi)
        assert inside.sum() > 100
        assert np.all(out.density.values[inside] > 0)


class TestPropagateLayer:
    def test_all_identity_layer(self):
        out = propagate_layer(SpectralMeasure.dirac(1.0), TwoAtomJacobianLaw(1.0, 1.0), 1.0, 1.0)
        assert out.atom_weight(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_single_atom_formula(self):
        # delta_{q0} in: (1 - alpha) delta_{q1} + alpha delta_{q1 + s^2 g q0}
        q0, q1, sigma, alpha, gamma = 1.3, 0.8, 1.1, 0.75, 1.6
        out = propagate_layer(SpectralMeasure.dirac(q0), TwoAtomJacobianLaw(alpha, gamma), sigma, q1)
        assert out.atom_weight(q1) == pytest.approx(1 - alpha, abs=1e-6)
        assert out.atom_weight(q1 + sigma**2 * gamma * q0) == pytest.approx(alpha, abs=1e-6)


class TestPropagateSchedule:
    @pytest.mark.parametrize("tuned", [False, True], ids=["alpha0.9_depth10", "tuned_depth16"])
    def test_layer_invariants(self, tuned):
        if tuned:
            p = tune_constant_q(16, 0.1).params
            sched = LayerSchedule.constant(16, p.q, p.sigma, p.alpha, p.gamma)
        else:
            sched = LayerSchedule.constant(10, 1.0, 1.0, 0.9, 1.0)
        mus = propagate_schedule(sched, grid_count=512)
        track = max_support_track(sched)
        assert track.valid_depth == sched.depth
        for ell, (mu, m1, lam, beta) in enumerate(
            zip(mus, mean_track(sched), track.lam, track.beta), start=1
        ):
            assert abs(moment(mu, 1) - m1) / m1 < 1e-2, ell
            top_loc, top_w = max(mu.atoms)
            assert top_loc == pytest.approx(lam, rel=1e-9), ell
            assert top_w == pytest.approx(beta, abs=1e-9), ell

    def test_depth_one(self):
        sched = LayerSchedule(q=(1.0,), sigma=(1.0,), jacobians=())
        out = propagate_schedule(sched)
        assert len(out) == 1
        assert out[0].atom_weight(1.0) == 1.0

    def test_exact_di_pure_atoms(self):
        sched = LayerSchedule.constant(3, 1.0, 1.0, 1.0, 1.0)
        mus = propagate_schedule(sched)
        for i, mu in enumerate(mus, start=1):
            assert mu.atom_weight(float(i)) == pytest.approx(1.0, abs=1e-9)

    def test_three_quarters_config(self):
        # alpha = 3/4 everywhere: atoms 1/4 at 1 and 1/2 at 3, density
        # supported on [2, 2.75], nothing at the middle candidate 2
        sched = LayerSchedule.constant(3, 1.0, 1.0, 0.75, 1.0)
        mu3 = propagate_schedule(sched)[-1]
        assert mu3.atom_weight(1.0) == pytest.approx(0.25, abs=1e-3)
        assert mu3.atom_weight(3.0) == pytest.approx(0.50, abs=1e-3)
        assert mu3.atom_weight(2.0) == pytest.approx(0.0, abs=1e-3)
        dens = mu3.density
        x = dens.grid()
        # the density diverges at the lower edge 2.0, so the smoothing
        # strip spills a little pointwise value below it; the spilled
        # mass is what must be negligible
        assert dens.cdf(1.95) < 1e-3
        carried = dens.values > 1e-3
        assert x[carried].max() < 2.75 + 0.05


def _warm_start_cases():
    """Solver runs by name, each a function returning (measures, stats)
    per layer: the benchmark's default depth-3 schedule at grid 2048, the
    tuned depth-16 schedule at grid 512 and the three-atom convolutions
    of test_m1_multiplicativity."""
    p = tune_constant_q(16, 0.1).params
    cases = {
        "theory3": lambda: propagate_schedule(
            LayerSchedule.constant(3, 1.0, 1.0, 0.75, 1.0), grid_count=2048, return_stats=True
        ),
        "tuned16": lambda: propagate_schedule(
            LayerSchedule.constant(16, p.q, p.sigma, p.alpha, p.gamma),
            grid_count=512, return_stats=True,
        ),
    }
    rng = np.random.default_rng(5)
    for k in range(4):
        locs = np.sort(rng.uniform(0.2, 3.0, size=3))
        ws = rng.dirichlet(np.ones(3))
        mu = SpectralMeasure.from_atoms(list(zip(locs.tolist(), ws.tolist())))
        nu = TwoAtomJacobianLaw(float(rng.uniform(0.4, 0.95)), float(rng.uniform(0.6, 1.8)))
        window = float(locs[-1]) * nu.gamma * 1.05

        def conv(mu=mu, nu=nu, window=window):
            out, stats = free_mult_conv_two_atom(
                mu, nu, grid_count=8192, eps=1e-5 * window, return_stats=True
            )
            return [out], [stats]

        cases[f"three_atom{k}"] = conv
    return cases


@pytest.fixture(scope="module")
def warm_and_cold():
    """name -> ((measures, stats) of the solver, the same from the cold
    start w = h_mu(z) of the reference solve)."""
    out = {}
    for name, run in _warm_start_cases().items():
        warm = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(freeconv, "_subordination_solve", reference_subordination_solve)
            cold = run()
        out[name] = (warm, cold)
    return out


class TestWarmStart:
    @pytest.mark.parametrize("name", list(_warm_start_cases()))
    def test_matches_cold_start_with_fewer_steps(self, warm_and_cold, name):
        (mus, stats), (ref_mus, ref_stats) = warm_and_cold[name]
        assert len(mus) == len(ref_mus)
        for ell, (mu, st, ref, ref_st) in enumerate(zip(mus, stats, ref_mus, ref_stats), 1):
            assert mu.atoms == ref.atoms, ell
            assert st.flagged == ref_st.flagged, ell
            if ref.density is None:
                assert mu.density is None, ell
                continue
            d, r = mu.density, ref.density
            assert (d.left, d.right, d.grid_count) == (r.left, r.right, r.grid_count), ell
            diff = np.abs(d.values - r.values)
            assert diff.max() <= 1e-8 * r.values.max(), ell
            assert np.trapezoid(diff, dx=r.step) <= 1e-9, ell
            assert st.iterations_mean * st.grid_count < ref_st.iterations_mean * ref_st.grid_count, ell

    @pytest.mark.parametrize("name", ["theory3", "tuned16"])
    def test_no_spurious_root_on_benchmark_schedules(self, warm_and_cold, name):
        # the warm start must not land on the root w = -1, which would show
        # as a negative density (clamped) or as flagged points
        (_, stats), _ = warm_and_cold[name]
        for ell, st in enumerate(stats, start=1):
            assert st.clamped == 0.0, ell
            assert st.flagged == (), ell


# frozen reference values: exact three-layer spectra evaluated from the
# closed form, continuous masses/means confirmed by adaptive quadrature
THREE_LAYER_CASES = [
    # (alpha1, alpha2, gamma1, gamma2) with q = sigma = 1, then
    # lam_mid, lam_minus, lam_plus, lam_max, w_min, w_mid, w_max, m1_total
    (0.8, 0.6, 1.2, 0.9, 1.9, 1.951928172447067, 2.7984718275529334, 2.98,
     0.4, 0.0, 0.4, 2.0584),
    (0.6, 0.8, 0.9, 1.1, 2.1, 2.1476008247431446, 2.9235991752568555, 3.09,
     0.2, 0.2, 0.4, 2.3552),
    (0.75, 0.75, 1.0, 1.0, 2.0, 2.0, 2.75, 3.0,
     0.25, 0.0, 0.5, 2.3125),
]


class TestSolveThreeLayer:
    @pytest.mark.parametrize(
        "a1,a2,g1,g2,mid,lo,hi,top,w_min,w_mid,w_max,m1", THREE_LAYER_CASES
    )
    def test_frozen_reference_spectra(self, a1, a2, g1, g2, mid, lo, hi, top, w_min, w_mid, w_max, m1):
        out = solve_three_layer(1, 1, 1, 1, 1, a1, a2, g1, g2)
        assert out.atom_weight(1.0) == pytest.approx(w_min, abs=1e-9)
        if w_mid > 0:
            assert out.atom_weight(mid) == pytest.approx(w_mid, abs=1e-9)
        if w_max > 0:
            assert out.atom_weight(top) == pytest.approx(w_max, abs=1e-9)
        assert out.support_max == pytest.approx(top, abs=1e-9)
        dens = out.density
        assert dens.left == pytest.approx(lo, abs=1e-9)
        assert dens.right == pytest.approx(hi, abs=1e-9)
        assert dens.mass() == pytest.approx(1.0 - w_min - w_mid - w_max, abs=1e-6)
        assert moment(out, 1) == pytest.approx(m1, abs=2e-3)

    def test_near_isometry_concentrates_at_depth(self):
        out = solve_three_layer(1, 1, 1, 1, 1, 0.999, 0.999, 1.0, 1.0)
        assert out.atom_weight(3.0) == pytest.approx(0.998, abs=1e-9)
        assert out.support_max == pytest.approx(3.0, abs=1e-9)

    def test_arcsine_case(self):
        out = solve_three_layer(1, 1, 1, 1, 1, 0.5, 0.5, 1.0, 1.0)
        assert out.atom_weight(1.0) == pytest.approx(0.5, abs=1e-9)
        assert out.atom_weight(2.0) == 0.0
        assert out.atom_weight(3.0) == 0.0
        x = out.density.grid()
        inside = (x > 2.05) & (x < 2.95)
        ref = 1.0 / (2 * np.pi * np.sqrt((x[inside] - 2.0) * (3.0 - x[inside])))
        assert np.max(np.abs(out.density.values[inside] - ref) / ref) < 0.05

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            solve_three_layer(1, 1, 1, 1, 1, 1.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_three_layer(-1, 1, 1, 1, 1, 0.5, 0.5, 1.0, 1.0)

    def test_matches_numeric_propagation(self):
        sched = LayerSchedule(
            q=(1.0, 1.0, 1.0),
            sigma=(1.0, 1.0, 1.0),
            jacobians=(TwoAtomJacobianLaw(0.8, 1.2), TwoAtomJacobianLaw(0.6, 0.9)),
        )
        numeric = propagate_schedule(sched)[-1]
        closed = solve_three_layer(1, 1, 1, 1, 1, 0.8, 0.6, 1.2, 0.9)
        assert distance_L1(numeric, closed, 0.02) < 1e-2


class TestMaxSupportTrack:
    def test_unit_constants_telescope(self):
        sched = LayerSchedule.constant(6, 1.0, 1.0, 1.0, 1.0)
        track = max_support_track(sched)
        np.testing.assert_allclose(track.lam, np.arange(1, 7), atol=1e-12)
        np.testing.assert_allclose(track.beta, np.ones(6), atol=1e-12)
        assert track.valid_depth == 6

    def test_contracting_recursion(self):
        sched = LayerSchedule.constant(3, 1.0, 1.0, 0.9, 0.9)
        track = max_support_track(sched)
        assert track.lam[-1] == pytest.approx(1 + 0.9 * (1 + 0.9), abs=1e-12)

    def test_paper_weight_example(self):
        sched = LayerSchedule.constant(11, 1.0, 1.0, 0.99, 1.0)
        track = max_support_track(sched)
        assert track.beta[-1] == pytest.approx(0.9, abs=1e-12)

    def test_invalid_marker(self):
        # alpha = 0.7: beta goes negative after 1/(1-alpha) ~ 4 layers
        sched = LayerSchedule.constant(8, 1.0, 1.0, 0.7, 1.0)
        track = max_support_track(sched)
        assert track.valid_depth < 8
        assert track.beta[track.valid_depth - 1] > 0
        assert len(track.lam) == 8

    def test_beta_nonincreasing(self):
        sched = LayerSchedule.constant(10, 1.0, 1.0, 0.95, 1.0)
        track = max_support_track(sched)
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(track.beta, track.beta[1:]))


class TestAsymptoticMax:
    def test_eps2_zero(self):
        assert asymptotic_max(AsymptoticRegime(1.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_frozen_value(self):
        val = asymptotic_max(AsymptoticRegime(1.0, 0.0, 0.1))
        assert val == pytest.approx(0.9516258196404048, abs=1e-9)

    def test_linearity_in_q(self):
        val = asymptotic_max(AsymptoticRegime(2.0, 0.0, 0.1))
        assert val == pytest.approx(1.9032516392808096, abs=1e-9)

    def test_removable_singularity_continuity(self):
        near = asymptotic_max(AsymptoticRegime(1.0, 0.0, 1e-9))
        assert near == pytest.approx(1.0, abs=1e-8)


class TestMeanTrack:
    def test_unit_constants(self):
        sched = LayerSchedule.constant(5, 1.0, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(mean_track(sched), [1, 2, 3, 4, 5], atol=1e-12)

    def test_contracting_example(self):
        # sigma^2 alpha gamma = 0.5 per layer
        sched = LayerSchedule.constant(3, 1.0, 1.0, 0.5, 1.0)
        np.testing.assert_allclose(mean_track(sched), [1.0, 1.5, 1.75], atol=1e-12)

    def test_matches_numeric_moment(self):
        sched = LayerSchedule(
            q=(1.0, 1.0, 1.0),
            sigma=(1.0, 1.0, 1.0),
            jacobians=(TwoAtomJacobianLaw(0.8, 1.2), TwoAtomJacobianLaw(0.6, 0.9)),
        )
        track = mean_track(sched)
        mus = propagate_schedule(sched)
        for predicted, mu in zip(track, mus):
            assert moment(mu, 1) == pytest.approx(predicted, rel=1e-3)

    def test_deep_limit_value(self):
        # L(1 - alpha) = 0.1 and -L log sigma^2 gamma = 0.1: the scaled mean
        # approaches (1 - exp(-0.2))/0.2 with O(1/L) error
        L = 256
        alpha = 1.0 - 0.1 / L
        sg2 = float(np.exp(-0.1 / L))
        sched = LayerSchedule.constant(L, 1.0, 1.0, alpha, sg2)
        final = mean_track(sched)[-1] / L
        assert final == pytest.approx(0.9063462346100909, rel=0.02)

    def test_max_track_deep_limit(self):
        L = 256
        sg2 = float(np.exp(-0.1 / L))
        sched = LayerSchedule.constant(L, 1.0, 1.0, 1.0, sg2)
        track = max_support_track(sched)
        assert track.lam[-1] / L == pytest.approx(0.9516258196404048, rel=0.02)


class TestThetaMeanLimit:
    def test_identity_regime(self):
        assert theta_mean_limit(AsymptoticRegime(1.0, 0.0, 0.0), 1.0) == pytest.approx(1.0)

    def test_frozen_value(self):
        val = theta_mean_limit(AsymptoticRegime(1.0, 0.1, 0.1), 2.0)
        assert val == pytest.approx(1.8126924692201818, abs=1e-9)


class TestDiConditions:
    def test_exact_isometry(self):
        assert di_conditions(1.0, 1.0, 1.0, 100) == (0.0, 0.0)

    def test_alpha_deviation(self):
        e1, e2 = di_conditions(0.999, 1.0, 1.0, 100)
        assert e1 == pytest.approx(0.1, abs=1e-9)
        assert e2 == pytest.approx(0.0, abs=1e-9)

    def test_scale_deviation(self):
        e1, e2 = di_conditions(1.0, 1.0, float(np.exp(-0.001)), 100)
        assert e1 == pytest.approx(0.0, abs=1e-9)
        assert e2 == pytest.approx(0.1, abs=1e-9)


class TestAtomTrackingInvariant:
    @settings(max_examples=10, deadline=None)
    @given(
        alpha=st.floats(0.9, 0.995),
        gamma=st.floats(0.7, 1.4),
        depth=st.integers(3, 5),
    )
    def test_largest_atom_follows_track(self, alpha, gamma, depth):
        sched = LayerSchedule.constant(depth, 1.0, 1.0, alpha, gamma)
        track = max_support_track(sched)
        beta_L = track.beta[-1]
        if beta_L <= 0.05:
            return
        mu = propagate_schedule(sched)[-1]
        top_loc, top_w = max(mu.atoms, key=lambda pair: pair[0])
        assert top_loc == pytest.approx(track.lam[-1], abs=1e-6)
        assert top_w == pytest.approx(beta_L, abs=1e-2)
