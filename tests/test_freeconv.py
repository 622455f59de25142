import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import constant_schedule, reference_subordination_solve

from isospec import freeconv
from isospec.freeconv import (
    MAX_ITER,
    SOLVER_TOL,
    WINDOW_MARGIN,
    AsymptoticRegime,
    LayerSchedule,
    TwoAtomJacobianLaw,
    asymptotic_max,
    atom_rule,
    di_conditions,
    free_mult_conv_two_atom,
    max_support_track,
    mean_track,
    propagate_schedule,
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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma must be finite"):
                TwoAtomJacobianLaw(0.5, bad)
            with pytest.raises(ValueError, match="alpha"):
                TwoAtomJacobianLaw(bad, 1.0)

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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["q", "sigma"])
    def test_values_must_be_finite_and_positive(self, field, bad):
        values = {"q": [1.0, 1.0], "sigma": [1.0, 1.0]}
        values[field][1] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            LayerSchedule(**values, jacobians=(TwoAtomJacobianLaw(0.5, 1.0),))

    @pytest.mark.parametrize("sigma", [1e155, 1e-170])
    def test_sigma_squared_must_stay_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma\\^2 must be finite and positive"):
            LayerSchedule(q=(1.0, 1.0), sigma=(1.0, sigma),
                          jacobians=(TwoAtomJacobianLaw(0.5, 1.0),))

    def test_constant_builder(self):
        sched = constant_schedule(4, 1.0, 0.9, 0.95, 1.1)
        assert sched.depth == 4
        assert len(sched.jacobians) == 3
        assert sched.sigma == (0.9,) * 4


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
        z = np.linspace(0.0, window, stats.grid_count) + 1j * (1e-4 * window)
        locs, masses = _atomize(mu)
        g, _, continued = _subordination_solve(locs, masses, nu, z)
        assert continued == stats.continued > 0
        assert np.all(g.imag <= 1e-8)

    def test_spurious_root_is_not_accepted(self):
        # layer 5 of `theory --depth 5 --grid 512` at the default schedule:
        # nu's zero atom puts an atom at 0 that mu_4 lacks, and near x = 0
        # Newton on the fixed point in w converges to the root w = -1
        # (G = 0), which attracts there; in u it is a pole of z(u)
        schedule = constant_schedule(5, 1.0, 1.0, 0.75, 1.0)
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
        g, _, _ = _subordination_solve(locs, masses, nu, z)
        assert np.all(np.abs(g * z) > 1e-6)

    @pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
    def test_solve_is_scale_free(self, scale):
        # mu_2 of the default depth-3 schedule, scaled: G(scale z) = G(z) / scale.
        # Near x = 0.4 scale, G and u pass near 0, and a convergence test on
        # u with an absolute floor never passed there at scale >= 1e3
        nu = TwoAtomJacobianLaw(0.75, 1.0)
        z = np.linspace(0.0, 2.1, 2048) + 2.1e-4j
        locs, masses = _atomize(SpectralMeasure.from_atoms([(1.0, 0.25), (2.0, 0.75)]))
        g, _, _ = _subordination_solve(locs, masses, nu, z)
        g_scaled, _, _ = _subordination_solve(scale * locs, masses, nu, scale * z)
        assert np.all(np.abs(scale * g_scaled - g) <= 1e-10 * (1.0 + np.abs(g)))

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

    def test_solver_failure_raises(self, monkeypatch):
        mu = SpectralMeasure.from_atoms([(1.0, 0.5), (2.0, 0.5)])
        monkeypatch.setattr(freeconv, "MAX_ITER", 1)
        with pytest.raises(NumericalError, match="subordination failed at"):
            free_mult_conv_two_atom(mu, TwoAtomJacobianLaw(0.5, 1.0))

    def test_return_stats(self, monkeypatch):
        # test_mass_conserved's gapped measure, whose gaps the walk solves
        mu = SpectralMeasure.from_atoms([(0.4, 0.25), (1.1, 0.5), (2.0, 0.25)])
        nu = TwoAtomJacobianLaw(0.6, 0.9)
        out, stats = free_mult_conv_two_atom(mu, nu, return_stats=True)
        assert stats.grid_count == 2048
        assert stats.flagged == ()
        assert abs(stats.mass_defect) < 1e-2
        # no Newton solve reached the cap: ten times the cap changes nothing
        monkeypatch.setattr(freeconv, "MAX_ITER", 10 * freeconv.MAX_ITER)
        roomy, roomy_stats = free_mult_conv_two_atom(mu, nu, return_stats=True)
        assert roomy_stats == stats
        assert roomy.to_json_dict() == out.to_json_dict()
        assert 0 < stats.continued < stats.grid_count

    def test_density_positive_inside_support(self):
        # mu_2 of the default depth-3 schedule; the closed form's density
        # sits on [lambda_-, lambda_+] = 1 + the convolution's support. A
        # solver that accepts the root w = -1 (G = 0) there zeroes it.
        mu = SpectralMeasure.from_atoms([(1.0, 0.25), (2.0, 0.75)])
        out = free_mult_conv_two_atom(mu, TwoAtomJacobianLaw(0.75, 1.0))
        closed = solve_three_layer(constant_schedule(3, 1.0, 1.0, 0.75, 1.0))
        lo, hi = closed.density.left - 1.0, closed.density.right - 1.0
        x = out.density.grid()
        inside = (x > lo) & (x < hi)
        assert inside.sum() > 100
        assert np.all(out.density.values[inside] > 0)


def _second_layer(q0, q1, sigma, alpha, gamma):
    """mu_2 of the depth-2 schedule: one layer of the recursion from delta_{q0}."""
    nu = TwoAtomJacobianLaw(alpha, gamma)
    return propagate_schedule(LayerSchedule(q=(q0, q1), sigma=(1.0, sigma), jacobians=(nu,)))[-1]


class TestPropagateLayer:
    def test_all_identity_layer(self):
        out = _second_layer(1.0, 1.0, 1.0, 1.0, 1.0)
        assert out.atom_weight(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_single_atom_formula(self):
        # delta_{q0} in: (1 - alpha) delta_{q1} + alpha delta_{q1 + s^2 g q0}
        q0, q1, sigma, alpha, gamma = 1.3, 0.8, 1.1, 0.75, 1.6
        out = _second_layer(q0, q1, sigma, alpha, gamma)
        assert out.atom_weight(q1) == pytest.approx(1 - alpha, abs=1e-6)
        assert out.atom_weight(q1 + sigma**2 * gamma * q0) == pytest.approx(alpha, abs=1e-6)


class TestPropagateSchedule:
    @pytest.mark.parametrize("tuned", [False, True], ids=["alpha0.9_depth10", "tuned_depth16"])
    def test_layer_invariants(self, tuned):
        if tuned:
            p = tune_constant_q(16, 0.1).params
            sched = constant_schedule(16, p.q, p.sigma, p.alpha, p.gamma)
        else:
            sched = constant_schedule(10, 1.0, 1.0, 0.9, 1.0)
        mus = propagate_schedule(sched, grid_count=512)
        lams, betas = max_support_track(sched)
        assert all(b > 0 for b in betas)
        for ell, (mu, m1, lam, beta) in enumerate(
            zip(mus, mean_track(sched), lams, betas), start=1
        ):
            assert abs(moment(mu, 1) - m1) / m1 < 1e-2, ell
            top_loc, top_w = max(mu.atoms)
            assert top_loc == pytest.approx(lam, rel=1e-9), ell
            assert top_w == pytest.approx(beta, abs=1e-9), ell
            if mu.density is not None:
                assert mu.density.right <= lam + mu.density.step, ell
            assert mu.mass() == pytest.approx(1.0, abs=1e-9), ell

    def test_depth_one(self):
        sched = LayerSchedule(q=(1.0,), sigma=(1.0,), jacobians=())
        out = propagate_schedule(sched)
        assert len(out) == 1
        assert out[0].atom_weight(1.0) == 1.0

    def test_exact_di_pure_atoms(self):
        sched = constant_schedule(3, 1.0, 1.0, 1.0, 1.0)
        mus = propagate_schedule(sched)
        for i, mu in enumerate(mus, start=1):
            assert mu.atom_weight(float(i)) == pytest.approx(1.0, abs=1e-9)

    def test_three_quarters_config(self):
        # alpha = 3/4 everywhere: atoms 1/4 at 1 and 1/2 at 3, density
        # supported on [2, 2.75], nothing at the middle candidate 2
        sched = constant_schedule(3, 1.0, 1.0, 0.75, 1.0)
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


def _random_schedule(k: int) -> LayerSchedule:
    """Schedule k of 40 random constant schedules: numpy seed 2026, depth
    3-8, q in [0.5, 2], sigma in [0.7, 1.3], alpha in [0.5, 0.99] and
    gamma in [0.5, 2]. At grid 512, 19 of them fail the mass gate at a
    layer where an atom dissolves."""
    rng = np.random.default_rng(2026)
    for _ in range(k + 1):
        depth = int(rng.integers(3, 9))
        q, sigma, alpha, gamma = (float(rng.uniform(lo, hi)) for lo, hi in
                                  ((0.5, 2.0), (0.7, 1.3), (0.5, 0.99), (0.5, 2.0)))
    return constant_schedule(depth, q, sigma, alpha, gamma)


def _layers(schedule, grid_count):
    """(measures, stats) of every layer that converged."""
    try:
        return propagate_schedule(schedule, grid_count=grid_count, return_stats=True)
    except freeconv.LayerError as exc:
        assert "subordination failed" not in exc.reason
        return exc.measures, exc.stats


def _gate_cases():
    """Convolution runs by name, each a function returning (measures,
    stats) per layer: the benchmark's depth-3 schedule at grid 2048, its
    depth-5 schedule and the tuned depth-16 schedule at grid 512, the
    three-atom convolutions of test_m1_multiplicativity, and schedules of
    the random sample at grid 512. Schedule 7 lands on a wrong root of
    z(u) = z in the lower half-plane if Im u > 0 is not required."""
    p = tune_constant_q(16, 0.1).params
    cases = {
        "theory3": lambda: _layers(constant_schedule(3, 1.0, 1.0, 0.75, 1.0), 2048),
        "theory5": lambda: _layers(constant_schedule(5, 1.0, 1.0, 0.75, 1.0), 512),
        "tuned16": lambda: _layers(constant_schedule(16, p.q, p.sigma, p.alpha, p.gamma), 512),
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
    for k in (3, 7, 10, 26):
        cases[f"random{k}"] = lambda k=k: _layers(_random_schedule(k), 512)
    return cases


@pytest.fixture(scope="module")
def solver_and_oracle():
    """name -> ((measures, stats) of the solver, the same with the
    oracle's G in place of the solver's, and one (G, steps, oracle G,
    oracle steps, oracle's accepted mask) per numeric solve).

    The oracle's G is taken where it accepts a root; at the points it
    leaves open the solver's G stands, so the two runs differ only where
    the oracle solved."""
    solve = freeconv._subordination_solve
    out = {}
    for name, run in _gate_cases().items():
        solves = []

        def both(locs, masses, nu, z):
            g, iters, continued = solve(locs, masses, nu, z)
            w, ref_iters, accepted, _ = reference_subordination_solve(
                locs, masses, nu, z, tol=SOLVER_TOL, max_iter=MAX_ITER
            )
            g_ref = np.where(accepted, (w + 1.0) / z, g)
            solves.append((g, iters, g_ref, ref_iters, accepted))
            return g_ref, iters, continued

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(freeconv, "_subordination_solve", both)
            ref = run()
        out[name] = (run(), ref, solves)
    return out


class TestSolverGate:
    @pytest.mark.parametrize("name", list(_gate_cases()))
    def test_matches_the_w_newton_oracle(self, solver_and_oracle, name):
        _, _, solves = solver_and_oracle[name]
        assert solves
        for g, _, g_ref, _, accepted in solves:
            assert accepted.mean() > 0.99
            err = np.abs(g - g_ref)
            assert np.all(err <= 1e-10 * (1.0 + np.abs(g_ref))), err.max()
            assert np.all(g.imag <= 1e-8)

    @pytest.mark.parametrize("name", list(_gate_cases()))
    def test_fewer_newton_steps(self, solver_and_oracle, name):
        _, _, solves = solver_and_oracle[name]
        steps = sum(int(iters.sum()) for _, iters, _, _, _ in solves)
        ref_steps = sum(int(ref_iters.sum()) for _, _, _, ref_iters, _ in solves)
        assert steps < ref_steps

    @pytest.mark.parametrize("name", list(_gate_cases()))
    def test_same_measures_no_clamp_no_flag(self, solver_and_oracle, name):
        # the parent's solver flagged the grid node beside an atom of the
        # three-atom cases and interpolated G across the atom's pole,
        # which showed as a clamped negative density
        (mus, stats), (ref_mus, _), _ = solver_and_oracle[name]
        assert len(mus) == len(ref_mus)
        for ell, (mu, st, ref) in enumerate(zip(mus, stats, ref_mus), start=1):
            assert st.clamped == 0.0, ell
            assert st.flagged == (), ell
            assert mu.atoms == ref.atoms, ell
            if ref.density is None:
                assert mu.density is None, ell
                continue
            d, r = mu.density, ref.density
            assert (d.left, d.right, d.grid_count) == (r.left, r.right, r.grid_count), ell
            # pointwise, G's 1e-10 (1 + |G|) allows more beside an atom's pole
            assert np.trapezoid(np.abs(d.values - r.values), dx=r.step) <= 1e-10, ell


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


def _depth_three(a1, a2, g1, g2, q=(1.0, 1.0, 1.0), sigma=(1.0, 1.0, 1.0)):
    """The depth-3 LayerSchedule with Jacobian laws (a1, g1) and (a2, g2)."""
    jacobians = (TwoAtomJacobianLaw(a1, g1), TwoAtomJacobianLaw(a2, g2))
    return LayerSchedule(q=q, sigma=sigma, jacobians=jacobians)


class TestSolveThreeLayer:
    @pytest.mark.parametrize(
        "a1,a2,g1,g2,mid,lo,hi,top,w_min,w_mid,w_max,m1", THREE_LAYER_CASES
    )
    def test_frozen_reference_spectra(self, a1, a2, g1, g2, mid, lo, hi, top, w_min, w_mid, w_max, m1):
        out = solve_three_layer(_depth_three(a1, a2, g1, g2))
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
        out = solve_three_layer(constant_schedule(3, 1.0, 1.0, 0.999, 1.0))
        assert out.atom_weight(3.0) == pytest.approx(0.998, abs=1e-9)
        assert out.support_max == pytest.approx(3.0, abs=1e-9)

    def test_arcsine_case(self):
        out = solve_three_layer(constant_schedule(3, 1.0, 1.0, 0.5, 1.0))
        assert out.atom_weight(1.0) == pytest.approx(0.5, abs=1e-9)
        assert out.atom_weight(2.0) == 0.0
        assert out.atom_weight(3.0) == 0.0
        x = out.density.grid()
        inside = (x > 2.05) & (x < 2.95)
        ref = 1.0 / (2 * np.pi * np.sqrt((x[inside] - 2.0) * (3.0 - x[inside])))
        assert np.max(np.abs(out.density.values[inside] - ref) / ref) < 0.05

    @pytest.mark.parametrize("a1,a2", [(1.0, 1.0), (0.4, 1.0), (1.0, 0.4)])
    def test_alpha_one_leaves_only_atoms(self, a1, a2):
        # when an alpha is 1 the continuous part has no weight
        sched = _depth_three(a1, a2, 1.4, 0.7, q=(1.3, 0.8, 1.1), sigma=(1.0, 0.9, 1.2))
        numeric = propagate_schedule(sched)[-1]
        closed = solve_three_layer(sched)
        assert closed.density is None and numeric.density is None
        assert np.array(closed.atoms) == pytest.approx(np.array(numeric.atoms), rel=1e-12)

    def test_parameter_validation(self):
        # the schedule refuses bad values before the closed form sees them
        with pytest.raises(ValueError):
            _depth_three(1.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            _depth_three(0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            _depth_three(0.5, 0.5, 1.0, 1.0, q=(-1.0, 1.0, 1.0))
        for depth in (2, 4):
            with pytest.raises(ValueError, match="needs depth 3"):
                solve_three_layer(constant_schedule(depth, 1.0, 1.0, 0.5, 1.0))

    def test_matches_numeric_propagation(self):
        sched = _depth_three(0.8, 0.6, 1.2, 0.9)
        numeric = propagate_schedule(sched)[-1]
        closed = solve_three_layer(sched)
        assert distance_L1(numeric, closed, 0.02) < 1e-2


class TestMaxSupportTrack:
    def test_unit_constants_telescope(self):
        sched = constant_schedule(6, 1.0, 1.0, 1.0, 1.0)
        lam, beta = max_support_track(sched)
        np.testing.assert_allclose(lam, np.arange(1, 7), atol=1e-12)
        np.testing.assert_allclose(beta, np.ones(6), atol=1e-12)
        assert all(b > 0 for b in beta)

    def test_contracting_recursion(self):
        sched = constant_schedule(3, 1.0, 1.0, 0.9, 0.9)
        lam, _ = max_support_track(sched)
        assert lam[-1] == pytest.approx(1 + 0.9 * (1 + 0.9), abs=1e-12)

    def test_paper_weight_example(self):
        sched = constant_schedule(11, 1.0, 1.0, 0.99, 1.0)
        _, beta = max_support_track(sched)
        assert beta[-1] == pytest.approx(0.9, abs=1e-12)

    def test_invalid_marker(self):
        # alpha = 0.7: beta goes negative after 1/(1-alpha) ~ 4 layers
        sched = constant_schedule(8, 1.0, 1.0, 0.7, 1.0)
        lam, beta = max_support_track(sched)
        valid_depth = sum(b > 0 for b in beta)  # beta never increases
        assert valid_depth < 8
        assert beta[valid_depth - 1] > 0
        assert len(lam) == 8

    def test_beta_nonincreasing(self):
        sched = constant_schedule(10, 1.0, 1.0, 0.95, 1.0)
        _, beta = max_support_track(sched)
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(beta, beta[1:]))


class TestAsymptoticRegime:
    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_q_must_be_finite_and_positive(self, q):
        with pytest.raises(ValueError, match="finite and positive"):
            AsymptoticRegime(q=q, eps1=0.1, eps2=0.1)

    @pytest.mark.parametrize("bad", [1.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eps1", "eps2"])
    def test_eps_must_be_finite_and_below_one(self, field, bad):
        values = {"q": 1.0, "eps1": 0.1, "eps2": 0.1, field: bad}
        with pytest.raises(ValueError, match="must be finite"):
            AsymptoticRegime(**values)


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
        sched = constant_schedule(5, 1.0, 1.0, 1.0, 1.0)
        np.testing.assert_allclose(mean_track(sched), [1, 2, 3, 4, 5], atol=1e-12)

    def test_contracting_example(self):
        # sigma^2 alpha gamma = 0.5 per layer
        sched = constant_schedule(3, 1.0, 1.0, 0.5, 1.0)
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
        sched = constant_schedule(L, 1.0, 1.0, alpha, sg2)
        final = mean_track(sched)[-1] / L
        assert final == pytest.approx(0.9063462346100909, rel=0.02)

    def test_max_track_deep_limit(self):
        L = 256
        sg2 = float(np.exp(-0.1 / L))
        sched = constant_schedule(L, 1.0, 1.0, 1.0, sg2)
        lam, _ = max_support_track(sched)
        assert lam[-1] / L == pytest.approx(0.9516258196404048, rel=0.02)


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
        sched = constant_schedule(depth, 1.0, 1.0, alpha, gamma)
        lam, beta = max_support_track(sched)
        beta_L = beta[-1]
        if beta_L <= 0.05:
            return
        mu = propagate_schedule(sched)[-1]
        top_loc, top_w = max(mu.atoms, key=lambda pair: pair[0])
        assert top_loc == pytest.approx(lam[-1], abs=1e-6)
        assert top_w == pytest.approx(beta_L, abs=1e-2)
