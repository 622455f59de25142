"""Tests for mean-field moment maps, derivative statistics, and tuning.

Reference numbers come from the erf/erfc closed forms of the Gaussian
moments, cross-checked against adaptive quadrature; they are frozen here
as literals. The moment map evaluates the same closed forms, so it must
match them to 1e-12; a quadrature over the kinked integrand would miss
them by up to 6e-2.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospec.meanfield import (
    HardTanh,
    Linear,
    ShiftedRelu,
    activation_apply,
    activation_deriv_sq,
    mean_field_schedule,
    moment_map,
    tune_constant_q,
)
from isospec.specmeasure import NumericalError

FIG_S = 0.3535533905932738  # 1 / (2 sqrt(2))


class TestActivationSpecs:
    def test_hard_tanh_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HardTanh(s=0.0, g=1.0)
        with pytest.raises(ValueError):
            HardTanh(s=0.5, g=-1.0)

    def test_shifted_relu_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ShiftedRelu(a=0.0, b=0.5)
        with pytest.raises(ValueError):
            ShiftedRelu(a=1.0, b=-0.1)

    def test_linear_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            Linear(g=0.0)


class TestActivationApply:
    def test_hard_tanh_branches(self):
        ht = HardTanh(s=0.5, g=2.0)  # kink at |x| = 1
        assert activation_apply(ht, 0.25) == pytest.approx(0.5)
        assert activation_apply(ht, 3.0) == pytest.approx(2.0)
        assert activation_apply(ht, -3.0) == pytest.approx(-2.0)

    def test_hard_tanh_deriv_sq_branches(self):
        ht = HardTanh(s=0.5, g=2.0)
        assert activation_deriv_sq(ht, 0.25) == pytest.approx(4.0)
        assert activation_deriv_sq(ht, 3.0) == 0.0

    def test_shifted_relu_branches(self):
        sr = ShiftedRelu(a=1.5, b=0.4)
        assert activation_apply(sr, 1.0) == pytest.approx(1.5)
        # constant a b below the threshold, not zero
        assert activation_apply(sr, 0.0) == pytest.approx(0.6)
        assert activation_deriv_sq(sr, 1.0) == pytest.approx(2.25)
        assert activation_deriv_sq(sr, 0.0) == 0.0

    def test_linear_is_scaling(self):
        assert activation_apply(Linear(1.3), -2.0) == pytest.approx(-2.6)
        assert activation_deriv_sq(Linear(1.3), 5.0) == pytest.approx(1.69)

    def test_array_input_returns_array(self):
        ht = HardTanh(s=0.5, g=2.0)
        out = activation_apply(ht, np.array([0.25, -4.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [0.5, -2.0])

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError):
            activation_apply(object(), 1.0)
        with pytest.raises(TypeError):
            activation_deriv_sq(object(), 1.0)


def _q_next(spec, sigma, q):
    return moment_map(spec, sigma, q)[0]


def _alpha_gamma(spec, sigma, q):
    return moment_map(spec, sigma, q)[1:]


class TestQForward:
    """The q_next component of the moment map."""

    def test_hard_tanh_reference_values(self):
        got = _q_next(HardTanh(s=FIG_S, g=1.0013), 1.0, 1.0)
        assert got == pytest.approx(0.9607821536138069, abs=1e-12)
        got = _q_next(HardTanh(s=1.0, g=1.0), 1.0, 1.0)
        assert got == pytest.approx(0.5160585509617133, abs=1e-12)

    def test_hard_tanh_kink_outside_node_range_is_exact(self):
        # saturation at |h| ~ 8 std: the tail terms are below 1e-14
        got = _q_next(HardTanh(s=0.125, g=1.0013), 1.0, 1.0)
        assert got == pytest.approx(1.0026016899999122, abs=1e-12)

    def test_hard_tanh_adversarial_corner(self):
        # a 64-node Gauss-Hermite rule reads 0.9528 here
        got = _q_next(HardTanh(s=0.5, g=1.2), 1.1, 0.7)
        assert got == pytest.approx(0.893196517594283, abs=1e-12)

    def test_shifted_relu_reference_values(self):
        got = _q_next(ShiftedRelu(a=1.2, b=0.3), 1.0, 1.0)
        assert got == pytest.approx(0.7950484086425429, abs=1e-12)
        got = _q_next(ShiftedRelu(a=2.0, b=0.0), 1.0, 1.0)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_linear_exact(self):
        got = _q_next(Linear(1.3), 0.9, 0.7)
        assert got == pytest.approx(1.3**2 * 0.9**2 * 0.7, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            _q_next(Linear(1.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            _q_next(Linear(1.0), -1.0, 1.0)
        with pytest.raises(TypeError):
            moment_map(object(), 1.0, 1.0)

    def test_expanding_linear_overflows(self):
        # the next moment lies past float range
        with pytest.raises(NumericalError):
            moment_map(Linear(2.0), 1.0, 1e308)


class TestJacobianStats:
    """The (alpha, gamma) components of the moment map."""

    def test_hard_tanh_reference_values(self):
        alpha, gamma = _alpha_gamma(HardTanh(s=FIG_S, g=1.0013), 1.0, 1.0)
        assert alpha == pytest.approx(0.9952683210823421, abs=1e-12)
        assert gamma == pytest.approx(1.0013**2, abs=1e-12)
        alpha, _ = _alpha_gamma(HardTanh(s=1.0, g=1.0), 1.0, 1.0)
        assert alpha == pytest.approx(0.6826894921370859, abs=1e-12)
        alpha, _ = _alpha_gamma(HardTanh(s=0.5, g=1.2), 1.1, 0.7)
        assert alpha == pytest.approx(0.9298517857009407, abs=1e-12)

    def test_shifted_relu_reference_values(self):
        alpha, gamma = _alpha_gamma(ShiftedRelu(a=1.2, b=0.3), 1.0, 1.0)
        assert alpha == pytest.approx(0.38208857781104744, abs=1e-12)
        assert gamma == pytest.approx(1.44, abs=1e-12)
        alpha, _ = _alpha_gamma(ShiftedRelu(a=2.0, b=0.0), 1.0, 1.0)
        assert alpha == pytest.approx(0.5, abs=1e-15)

    def test_linear_has_full_support(self):
        assert _alpha_gamma(Linear(1.3), 2.0, 0.5) == (1.0, pytest.approx(1.69))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            _alpha_gamma(Linear(1.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            _alpha_gamma(Linear(1.0), 0.0, 1.0)


class TestTuneConstantQ:
    def test_depth_16_reference_tuning(self):
        r = tune_constant_q(16, eps1=0.1)
        assert r.spec.g == pytest.approx(3.050462909517828, rel=1e-10)
        assert r.spec.s == pytest.approx(0.3657151167483403, rel=1e-10)
        assert r.params.sigma == pytest.approx(0.3278190981702725, rel=1e-10)
        assert r.params.alpha == pytest.approx(1.0 - 0.1 / 16, abs=1e-12)
        assert r.params.sigma**2 * r.params.gamma == pytest.approx(1.0, abs=1e-12)
        assert r.eps1 == pytest.approx(0.1, abs=1e-12)

    def test_depth_32_reference_tunings(self):
        r = tune_constant_q(32, eps1=0.1)
        assert r.spec.g == pytest.approx(3.252546312873646, rel=1e-10)
        assert r.params.sigma == pytest.approx(0.3074514253777046, rel=1e-10)
        assert r.spec.s == pytest.approx(0.33839036900630753, rel=1e-10)
        r = tune_constant_q(32, eps1=0.1, eps2=0.1)
        assert r.spec.g == pytest.approx(3.3977181594075643, rel=1e-10)
        assert r.params.sigma == pytest.approx(0.29385566230769444, rel=1e-10)
        assert r.spec.s == pytest.approx(0.33891951724728764, rel=1e-10)
        assert r.params.sigma**2 * r.params.gamma == pytest.approx(
            math.exp(-0.1 / 32), rel=1e-12
        )

    def test_depth_8_reference_tuning(self):
        r = tune_constant_q(8, eps1=0.1, eps2=0.1)
        assert r.spec.g == pytest.approx(2.989816316248528, rel=1e-10)
        assert r.params.sigma == pytest.approx(0.3323847974280664, rel=1e-10)
        assert r.spec.s == pytest.approx(0.4028775939807329, rel=1e-10)
        assert r.params.gamma == pytest.approx(8.939001604905918, rel=1e-10)

    def test_u_star_and_eps1_paths_agree(self):
        ra = tune_constant_q(16, eps1=0.1)
        rb = tune_constant_q(16, u_star=2.7343687865331816)
        assert ra.spec.g == pytest.approx(rb.spec.g, rel=1e-9)
        assert ra.spec.s == pytest.approx(rb.spec.s, rel=1e-9)

    def test_tuning_is_self_consistent(self):
        r = tune_constant_q(8, eps1=0.2, q_star=2.5)
        assert r.params.q == 2.5
        alpha, gamma = _alpha_gamma(r.spec, r.params.sigma, r.params.q)
        assert alpha == pytest.approx(r.params.alpha, abs=1e-12)
        assert gamma == pytest.approx(r.params.gamma, abs=1e-12)
        # the designed fixed point is exact under the moment map
        q1 = _q_next(r.spec, r.params.sigma, r.params.q)
        assert q1 == pytest.approx(2.5, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        depth=st.integers(min_value=2, max_value=64),
        eps1=st.floats(min_value=0.01, max_value=1.5),
        eps2=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_prescribed_deviations_hold(self, depth, eps1, eps2):
        r = tune_constant_q(depth, eps1=eps1, eps2=eps2)
        assert r.params.alpha == pytest.approx(1.0 - eps1 / depth, abs=1e-9)
        assert r.params.sigma**2 * r.params.gamma == pytest.approx(
            math.exp(-eps2 / depth), rel=1e-12
        )
        alpha, gamma = _alpha_gamma(r.spec, r.params.sigma, r.params.q)
        assert alpha == pytest.approx(r.params.alpha, abs=1e-9)
        assert gamma == pytest.approx(r.params.gamma, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=64),
        frac=st.floats(min_value=1e-3, max_value=0.999),
    )
    def test_critical_line_is_an_exact_fixed_point(self, depth, frac):
        # eps2 = L log(1 - eps1/L) is sigma^2 gamma alpha = 1
        eps1 = frac * depth
        r = tune_constant_q(depth, eps1=eps1, eps2=depth * math.log1p(-eps1 / depth))
        p = r.params
        assert p.sigma**2 * p.gamma * p.alpha == pytest.approx(1.0, abs=1e-12)
        sched = mean_field_schedule(r.spec, p.sigma, 16, q0=p.q)
        assert max(abs(q - p.q) for q in sched.q) < 1e-12
        assert max(abs(j.alpha - p.alpha) for j in sched.jacobians) < 1e-12
        assert max(abs(j.gamma - p.gamma) for j in sched.jacobians) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tune_constant_q(0, eps1=0.1)
        with pytest.raises(ValueError):
            tune_constant_q(16)  # neither eps1 nor u_star
        with pytest.raises(ValueError):
            tune_constant_q(16, eps1=0.1, u_star=2.0)  # both
        with pytest.raises(ValueError):
            tune_constant_q(16, eps1=16.5)  # out of (0, depth)
        with pytest.raises(ValueError):
            tune_constant_q(16, eps1=0.1, q_star=0.0)
        with pytest.raises(ValueError):
            tune_constant_q(1, eps1=0.5, eps2=-50.0)  # moment map loses its fixed point


class TestMeanFieldSchedule:
    def test_constant_q_tuning_yields_constant_schedule(self):
        r = tune_constant_q(16, eps1=0.1)
        sched = mean_field_schedule(r.spec, r.params.sigma, 16, q0=r.params.q)
        assert sched.depth == 16
        assert len(sched.jacobians) == 15
        assert max(abs(q - r.params.q) for q in sched.q) < 1e-12
        assert max(abs(j.alpha - r.params.alpha) for j in sched.jacobians) < 1e-12
        assert all(j.gamma == pytest.approx(r.params.gamma) for j in sched.jacobians)

    def test_depth_one_has_no_jacobians(self):
        sched = mean_field_schedule(Linear(1.0), 1.0, 1, q0=0.7)
        assert sched.q == (0.7,)
        assert sched.jacobians == ()

    def test_per_layer_sigma(self):
        sched = mean_field_schedule(Linear(1.0), [0.5, 2.0, 1.0], 3, q0=1.0)
        # q halves twice then quadruples: 1 -> 0.25 -> 1.0
        assert sched.q[1] == pytest.approx(0.25, abs=1e-12)
        assert sched.q[2] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mean_field_schedule(Linear(1.0), 1.0, 0)
        with pytest.raises(ValueError):
            mean_field_schedule(Linear(1.0), [1.0, 1.0], 3)
