"""Tests for the finite-width simulator: sampling, FIM builders, spectra."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dual_fim_dense,
    freeness_probe,
    reference_dual_fim,
    reference_model_fim,
    reference_trace,
)

from isospec import _openblas, rmtsim
from isospec.meanfield import HardTanh, Linear
from isospec.rmtsim import (
    EigenReport,
    OrthogonalNet,
    dual_fim,
    empirical_measure,
    forward_trace,
    model_fim_sample,
    network_fim_sample,
    normalized_input,
    ntk_block_matrix,
    sample_haar_orthogonal,
)
from isospec.specmeasure import NumericalError


def _numpy_haar(M, rng):
    """The Haar draw through np.linalg.qr: the reference of both paths."""
    for _ in range(8):
        q, r = np.linalg.qr(rng.standard_normal((M, M)))
        d = np.diagonal(r)
        if np.abs(d).min() >= 1e-12 * math.sqrt(M):
            return q * np.sign(d)
    raise AssertionError("no full-rank draw")


class _SingularDraws:
    """A generator whose first `singular` Gaussians have a zero column."""

    def __init__(self, singular, seed):
        self.rng = np.random.default_rng(seed)
        self.singular = singular
        self.draws = 0

    def standard_normal(self, size):
        a = self.rng.standard_normal(size)
        if self.draws < self.singular:
            a[:, 1] = 0.0
        self.draws += 1
        return a


@pytest.fixture(params=["lapack", "fallback"])
def haar_path(request, monkeypatch):
    """The draw through numpy's OpenBLAS, or with the lookup forced to
    find nothing, through np.linalg.qr."""
    if request.param == "fallback":
        monkeypatch.setattr(_openblas, "_library", lambda: None)
    elif not _openblas.found():
        pytest.skip("numpy bundles no OpenBLAS here")
    return request.param


class TestSampleHaarOrthogonal:
    def test_orthogonality(self):
        q = sample_haar_orthogonal(32, np.random.default_rng(0))
        assert np.abs(q.T @ q - np.eye(32)).max() < 1e-10

    def test_unit_determinant_magnitude(self):
        q = sample_haar_orthogonal(16, np.random.default_rng(1))
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-10

    def test_entry_mean_is_centered(self):
        # with the sign fix the first entry has mean 0 and variance 1/M
        rng = np.random.default_rng(7)
        vals = [sample_haar_orthogonal(16, rng)[0, 0] for _ in range(2000)]
        assert abs(np.mean(vals)) < 3.0 / math.sqrt(2000 * 16)

    def test_seeded_draw_is_deterministic(self):
        qa = sample_haar_orthogonal(8, np.random.default_rng(5))
        qb = sample_haar_orthogonal(8, np.random.default_rng(5))
        np.testing.assert_array_equal(qa, qb)

    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            sample_haar_orthogonal(1, np.random.default_rng(0))

    @pytest.mark.parametrize("M", [2, 3, 64, 129, 1000])
    def test_both_paths_give_numpys_bits(self, haar_path, M):
        rng, ref = np.random.default_rng(M), np.random.default_rng(M)
        q = sample_haar_orthogonal(M, rng)
        assert q.flags.c_contiguous
        assert q.tobytes() == _numpy_haar(M, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_singular_draw_is_resampled(self, haar_path):
        rng, ref = _SingularDraws(1, seed=3), np.random.default_rng(3)
        ref.standard_normal((16, 16))
        q = sample_haar_orthogonal(16, rng)
        assert rng.draws == 2
        assert q.tobytes() == _numpy_haar(16, ref).tobytes()
        with pytest.raises(NumericalError, match="rank-deficient"):
            sample_haar_orthogonal(16, _SingularDraws(8, seed=3))

    def test_importing_the_cli_looks_up_no_library(self):
        code = "import isospec.cli, isospec._openblas as o; print(o._library.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"

    def test_one_draw_holds_about_one_matrix(self):
        if not _openblas.found():
            pytest.skip("numpy bundles no OpenBLAS here")
        M = 512
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            sample_haar_orthogonal(M, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * M * M


class TestCheckLayer:
    @pytest.mark.parametrize("M", [129, 1000])
    @pytest.mark.parametrize("spot", ["first", "last", "band_edge_upper", "band_edge_lower",
                                      "upper", "lower"])
    def test_catches_one_perturbed_entry(self, M, spot):
        at = {"first": (0, 0), "last": (M - 1, M - 1), "band_edge_upper": (127, 128),
              "band_edge_lower": (128, 127), "upper": (3, M - 2), "lower": (M - 2, 3)}[spot]
        w = sample_haar_orthogonal(M, np.random.default_rng(M))
        rmtsim._check_layer(w, 1.0, M, 1)
        w[at] += 1e-6
        with pytest.raises(ValueError, match="layer 1: W/sigma off orthogonal"):
            rmtsim._check_layer(w, 1.0, M, 1)

    @pytest.mark.parametrize("s", [1e-7, 1e160, 1e300])
    def test_scale_neither_underflows_nor_overflows(self, s):
        w = sample_haar_orthogonal(200, np.random.default_rng(0))
        w *= s
        rmtsim._check_layer(w, s, 200, 1)
        w[150, 10] += 1e-6 * s
        with pytest.raises(ValueError, match="off orthogonal"):
            rmtsim._check_layer(w, s, 200, 1)

    def test_nan_entry_fails(self):
        w = sample_haar_orthogonal(4, np.random.default_rng(0))
        w[1, 2] = math.nan
        with pytest.raises(ValueError, match="off orthogonal by nan"):
            OrthogonalNet(4, 1, [w], (1.0,), Linear(1.0))

    def test_peak_memory_below_one_matrix(self):
        M = 512
        w = sample_haar_orthogonal(M, np.random.default_rng(0))
        tracemalloc.start()
        try:
            rmtsim._check_layer(w, 1.0, M, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * M * M


class TestNormalizedInput:
    @settings(max_examples=20, deadline=None)
    @given(
        q_hat=st.floats(min_value=0.1, max_value=10.0),
        M=st.integers(min_value=4, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_norm_is_exact(self, q_hat, M, seed):
        x = normalized_input(M, np.random.default_rng(seed), q_hat)
        assert float(x @ x) / M == pytest.approx(q_hat, rel=1e-12)

    def test_rejects_nonpositive_q_hat(self):
        with pytest.raises(ValueError):
            normalized_input(8, np.random.default_rng(0), 0.0)


class TestOrthogonalNet:
    def test_sample_scales_orthogonal_layers(self):
        net = OrthogonalNet.sample(16, 3, Linear(1.0), sigma=1.5, seed=2)
        assert net.sigma == (1.5, 1.5, 1.5)
        for w in net.weights:
            assert np.abs((w / 1.5).T @ (w / 1.5) - np.eye(16)).max() < 1e-10

    def test_sample_is_seed_deterministic(self):
        na = OrthogonalNet.sample(8, 2, Linear(1.0), seed=3)
        nb = OrthogonalNet.sample(8, 2, Linear(1.0), seed=3)
        for wa, wb in zip(na.weights, nb.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_rejects_non_orthogonal_weights(self):
        with pytest.raises(ValueError):
            OrthogonalNet(4, 1, [np.ones((4, 4))], (1.0,), Linear(1.0))

    def test_rejects_shape_and_count_mismatches(self):
        w = sample_haar_orthogonal(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            OrthogonalNet(4, 2, [w], (1.0, 1.0), Linear(1.0))
        with pytest.raises(ValueError):
            OrthogonalNet(6, 1, [w], (1.0,), Linear(1.0))
        with pytest.raises(ValueError):
            OrthogonalNet(4, 1, [w], (-1.0,), Linear(1.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                OrthogonalNet(4, 1, [w], (bad,), Linear(1.0))


class TestForwardLayers:
    @pytest.mark.parametrize("M", [8, 64, 1000])
    def test_rows_get_the_bits_of_the_single_vector_pass(self, M):
        # a batch (A, M) through one weight per layer, and through a stack
        # (A, M, M) per layer, row a meeting weights[:, a]
        rng = np.random.default_rng(M)
        act = HardTanh(s=0.5, g=1.3)
        weights = rng.standard_normal((2, 2, M, M)) / math.sqrt(M)  # (L, A, M, M)
        x = rng.standard_normal((2, M))

        def run(ws, v):
            return [(cur, h) for _, cur, h in rmtsim._forward_layers(ws, act, v)]

        batched, stacked = run(weights[:, 0], x), run(weights, x)
        for a in range(2):
            for got, ws in ((batched, weights[:, 0]), (stacked, weights[:, a])):
                want = run(ws, x[a])
                assert np.array_equal(want[0][1], ws[0] @ x[a])
                assert len(got) == len(want) == 2
                for (got_x, got_h), (want_x, want_h) in zip(got, want):
                    assert np.array_equal(got_x[a], want_x)
                    assert np.array_equal(got_h[a], want_h)


class TestForwardTrace:
    def test_linear_preserves_moments(self):
        net = OrthogonalNet.sample(32, 4, Linear(1.0), seed=0)
        x = normalized_input(32, np.random.default_rng(0))
        tr = forward_trace(net, x)
        assert len(tr.x) == 5 and len(tr.h) == 4
        assert len(tr.deriv) == 3 and len(tr.q_hat) == 4
        np.testing.assert_allclose(tr.q_hat, 1.0, atol=1e-12)

    def test_unsaturated_hard_tanh_compounds_gain(self):
        # saturation at |h| ~ 900 is never reached, so the map is g-linear
        net = OrthogonalNet.sample(64, 3, HardTanh(s=1e-3, g=1.1), seed=1)
        x = normalized_input(64, np.random.default_rng(1))
        tr = forward_trace(net, x)
        assert tr.q_hat[1] == pytest.approx(1.1**2, rel=1e-9)
        assert tr.q_hat[2] == pytest.approx(1.1**4, rel=1e-9)

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_matches_reference_trace(self, depth):
        net = OrthogonalNet.sample(24, depth, HardTanh(s=0.5, g=1.3), seed=depth)
        x = normalized_input(24, np.random.default_rng(depth))
        tr, ref = forward_trace(net, x), reference_trace(net, x)
        assert tr.q_hat == ref.q_hat
        for got, want in ((tr.x, ref.x), (tr.h, ref.h), (tr.deriv, ref.deriv)):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_rejects_bad_inputs(self):
        net = OrthogonalNet.sample(8, 2, Linear(1.0), seed=0)
        with pytest.raises(ValueError):
            forward_trace(net, np.zeros(8))
        with pytest.raises(ValueError):
            forward_trace(net, np.ones(4))


class TestDualFim:
    def test_recursive_matches_dense(self):
        net = OrthogonalNet.sample(8, 3, HardTanh(s=1.0, g=1.0), seed=6)
        x = normalized_input(8, np.random.default_rng(6))
        h_dense, _ = dual_fim_dense(net, x)
        h_rec = dual_fim(net.weights, net.activation, x)
        assert np.abs(h_dense - h_rec).max() < 1e-8

    def test_conditional_fim_duality(self):
        # J J^T / M and J^T J / M share the nonzero spectrum; the dense
        # form carries exactly L M^2 - M extra zeros
        M, L = 8, 3
        net = OrthogonalNet.sample(M, L, HardTanh(s=1.0, g=1.0), seed=7)
        x = normalized_input(M, np.random.default_rng(7))
        h, cond = dual_fim_dense(net, x)
        h_eigs = np.sort(np.linalg.eigvalsh(h))
        cond_eigs = np.sort(np.linalg.eigvalsh(cond / M))
        assert np.count_nonzero(np.abs(cond_eigs) < 1e-8) == L * M * M - M
        np.testing.assert_allclose(cond_eigs[-M:], h_eigs, atol=1e-6)

    @pytest.mark.parametrize("depth", [1, 2, 8])
    def test_linear_unit_scales_give_depth_identity(self, depth):
        net = OrthogonalNet.sample(16, depth, Linear(1.0), seed=8)
        x = normalized_input(16, np.random.default_rng(8))
        h = dual_fim(net.weights, net.activation, x)
        assert np.abs(np.linalg.eigvalsh(h) - depth).max() < 1e-9

    def test_fim_is_positive_semidefinite(self):
        net = OrthogonalNet.sample(24, 4, HardTanh(s=0.5, g=1.3), seed=9)
        x = normalized_input(24, np.random.default_rng(9))
        h = dual_fim(net.weights, net.activation, x)
        assert np.linalg.eigvalsh(h)[0] > -1e-10

    def test_rejects_mismatched_trace(self):
        # layers and input of different widths, or no layer at all
        net = OrthogonalNet.sample(8, 3, Linear(1.0), seed=0)
        x6 = normalized_input(6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dual_fim(net.weights, net.activation, x6)
        with pytest.raises(ValueError):
            network_fim_sample(8, 3, Linear(1.0), 1.0, 0, x6)
        with pytest.raises(ValueError):
            dual_fim([], net.activation, normalized_input(8, np.random.default_rng(0)))

    def test_dense_size_guards(self):
        big = OrthogonalNet.sample(32, 2, Linear(1.0), seed=0)
        with pytest.raises(ValueError):
            dual_fim_dense(big, normalized_input(32, np.random.default_rng(0)))
        deep = OrthogonalNet.sample(8, 5, Linear(1.0), seed=0)
        with pytest.raises(ValueError):
            dual_fim_dense(deep, normalized_input(8, np.random.default_rng(0)))


STREAM_ACTIVATIONS = [Linear(1.0), HardTanh(s=0.5, g=1.3)]
STREAM_SIGMAS = (0.8, 1.1, 0.9, 1.2, 1.0)


class TestNetworkFimSample:
    """The streamed draw: each layer drawn, checked and consumed in turn."""

    @pytest.mark.parametrize("depth", [1, 2, 5])
    @pytest.mark.parametrize("activation", STREAM_ACTIVATIONS, ids=["linear", "hard_tanh"])
    def test_bitwise_equal_to_reference_loop(self, activation, depth):
        sigma = list(STREAM_SIGMAS[:depth])
        x = normalized_input(32, np.random.default_rng(40 + depth))
        net = OrthogonalNet.sample(32, depth, activation, sigma, seed=depth)
        want = reference_dual_fim(net, x)
        assert np.array_equal(network_fim_sample(32, depth, activation, sigma, depth, x), want)
        assert np.array_equal(dual_fim(net.weights, activation, x), want)

    def test_streamed_weights_are_the_sampled_network(self, monkeypatch):
        seen = []
        real = rmtsim.dual_fim

        def recording(weights, activation, x):
            layers = list(weights)
            seen.extend(layers)
            return real(layers, activation, x)

        monkeypatch.setattr(rmtsim, "dual_fim", recording)
        sigma = list(STREAM_SIGMAS)
        x = normalized_input(16, np.random.default_rng(0))
        network_fim_sample(16, 5, Linear(1.0), sigma, 3, x)
        net = OrthogonalNet.sample(16, 5, Linear(1.0), sigma, seed=3)
        assert len(seen) == 5
        assert all(np.array_equal(a, b) for a, b in zip(seen, net.weights))

    def test_non_orthogonal_layer_is_named(self, monkeypatch):
        draws = []
        real = rmtsim.sample_haar_orthogonal

        def bent_third(M, rng):
            q = real(M, rng)
            draws.append(M)
            if len(draws) == 3:
                q[0, 0] += 1e-6
            return q

        monkeypatch.setattr(rmtsim, "sample_haar_orthogonal", bent_third)
        x = normalized_input(16, np.random.default_rng(0))
        with pytest.raises(ValueError, match="layer 3: W/sigma off orthogonal"):
            network_fim_sample(16, 5, Linear(1.0), 1.0, 0, x)
        assert len(draws) == 3  # the draw stops at the bad layer

    def test_non_finite_preactivation(self):
        x = normalized_input(16, np.random.default_rng(0))
        with np.errstate(over="ignore", invalid="ignore"):
            # |x^3| overflows, so h^4 = W_4 x^3 is not finite
            with pytest.raises(NumericalError, match="layer 4"):
                network_fim_sample(16, 5, Linear(1e120), 1.0, 0, x)

    def test_rejects_nonpositive_sigma(self):
        x = normalized_input(8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            network_fim_sample(8, 2, Linear(1.0), [1.0, 0.0], 0, x)
        with pytest.raises(ValueError):
            network_fim_sample(8, 3, Linear(1.0), [1.0, 1.0], 0, x)
        with pytest.raises(ValueError, match="finite and positive"):
            network_fim_sample(8, 2, Linear(1.0), [1.0, math.nan], 0, x)

    def test_peak_memory_is_flat_in_depth(self):
        # a stored network would hold depth x 0.5 MB of weights at M = 256
        x = normalized_input(256, np.random.default_rng(0))

        def peak(depth):
            tracemalloc.start()
            try:
                network_fim_sample(256, depth, HardTanh(s=0.5, g=1.3), 1.0, 0, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        shallow, deep = peak(8), peak(32)
        assert abs(deep - shallow) <= 0.1 * shallow


def _draw(model: str) -> np.ndarray:
    """One small six-layer draw of either simulate model."""
    if model == "network":
        x = normalized_input(24, np.random.default_rng(0))
        return network_fim_sample(24, 6, HardTanh(s=0.5, g=1.3), 1.0, 0, x)
    return model_fim_sample(
        24, [1.0] * 6, [1.1] * 6, [0.75] * 5, [1.3] * 5, np.random.default_rng(0)
    )


@pytest.mark.parametrize("model", ["network", "atoms"])
class TestFimRecursionWorker:
    """The conjugations run on one worker thread while the caller draws."""

    def test_at_most_one_earlier_draw_alive(self, model, monkeypatch):
        draws, alive = [], []
        real = rmtsim.sample_haar_orthogonal

        def tracked(M, rng):
            alive.append(sum(ref() is not None for ref in draws))
            q = real(M, rng)
            draws.append(weakref.ref(q))
            return q

        monkeypatch.setattr(rmtsim, "sample_haar_orthogonal", tracked)
        _draw(model)
        assert len(draws) == (6 if model == "network" else 5)
        assert max(alive) == 1

    def test_repeatable_under_fast_thread_switching(self, model):
        want = _draw(model)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(_draw(model), want)
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_a_call(self, model):
        before = threading.active_count()
        _draw(model)
        assert threading.active_count() == before

    def test_worker_failure_reaches_caller(self, model, monkeypatch):
        threads = []
        real = rmtsim._fim_step

        def failing_third(h, u, layer):
            threads.append(threading.current_thread())
            if len(threads) == 3:
                raise RuntimeError("step 3 failed")
            real(h, u, layer)

        monkeypatch.setattr(rmtsim, "_fim_step", failing_third)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step 3 failed"):
            _draw(model)
        assert threading.active_count() == before
        assert len(threads) == 3
        assert threading.main_thread() not in threads

    def test_step_failure_wins_over_the_next_draws(self, model, monkeypatch):
        # step 2 conjugates the layer drawn by draw 3 (network) or 2 (atoms);
        # the draw after it fails too, but a serial loop never reaches it
        steps, draws = [], []
        real_step, real_draw = rmtsim._fim_step, rmtsim.sample_haar_orthogonal

        def failing_second(h, u, layer):
            steps.append(1)
            if len(steps) == 2:
                raise RuntimeError("step 2 failed")
            real_step(h, u, layer)

        def failing_draw(M, rng):
            draws.append(1)
            if len(draws) == (4 if model == "network" else 3):
                raise NumericalError("draw failed")
            return real_draw(M, rng)

        monkeypatch.setattr(rmtsim, "_fim_step", failing_second)
        monkeypatch.setattr(rmtsim, "sample_haar_orthogonal", failing_draw)
        with pytest.raises(RuntimeError, match="step 2 failed") as err:
            _draw(model)
        assert isinstance(err.value.__context__, NumericalError)

    def test_steps_run_under_the_callers_error_state(self, model, monkeypatch):
        real = rmtsim._fim_step

        def dividing(h, u, layer):
            np.divide(1.0, np.zeros(1))
            real(h, u, layer)

        monkeypatch.setattr(rmtsim, "_fim_step", dividing)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _draw(model)


class TestNtkBlockMatrix:
    def test_single_sample_is_scaled_fim(self):
        net = OrthogonalNet.sample(12, 3, HardTanh(s=1.0, g=1.0), seed=10)
        x = normalized_input(12, np.random.default_rng(10))
        theta = ntk_block_matrix(net, [x])
        h = dual_fim(net.weights, net.activation, x)
        assert np.abs(theta - 12 * h).max() < 1e-8

    def test_trace_identity(self):
        net = OrthogonalNet.sample(16, 3, HardTanh(s=1.0, g=1.0), seed=11)
        rng = np.random.default_rng(11)
        inputs = [normalized_input(16, rng) for _ in range(3)]
        theta = ntk_block_matrix(net, inputs)
        # both sides in normalized trace: tr(A) / dim(A)
        lhs = np.trace(theta / 16) / (3 * 16)
        rhs = sum(
            np.trace(dual_fim(net.weights, net.activation, x)) / 16
            for x in inputs
        ) / 9.0
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_symmetric_and_psd(self):
        net = OrthogonalNet.sample(8, 2, HardTanh(s=1.0, g=1.0), seed=12)
        rng = np.random.default_rng(12)
        theta = ntk_block_matrix(net, [normalized_input(8, rng) for _ in range(4)])
        assert np.abs(theta - theta.T).max() < 1e-12
        assert np.linalg.eigvalsh(theta)[0] > -1e-8

    def test_guards(self):
        net = OrthogonalNet.sample(64, 2, Linear(1.0), seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ntk_block_matrix(net, [])
        with pytest.raises(ValueError):
            ntk_block_matrix(net, [normalized_input(64, rng) for _ in range(65)])


def _eig_report(a, bin_count: int = 64) -> EigenReport:
    """The CLI's eigen report of a symmetric matrix."""
    return EigenReport.from_eigenvalues(np.linalg.eigvalsh(a), bin_count)


class TestEigSym:
    def test_identity_spectrum(self):
        rep = _eig_report(np.eye(12))
        np.testing.assert_allclose(rep.eigenvalues, 1.0)
        assert rep.max == 1.0 and rep.mean == 1.0
        assert rep.atom_mass_near_max == 1.0
        # degenerate spectrum collapses to a single histogram bin
        assert list(rep.histogram[1]) == [12]

    def test_diagonal_spectrum_statistics(self):
        rep = _eig_report(np.diag(np.arange(1.0, 11.0)))
        assert rep.max == pytest.approx(10.0)
        assert rep.mean == pytest.approx(5.5)
        assert rep.eigenvalues[0] <= rep.eigenvalues[-1]

    def test_matches_direct_solver(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 20))
        sym = (a + a.T) / 2.0
        rep = _eig_report(sym, bin_count=32)
        np.testing.assert_allclose(rep.eigenvalues, np.linalg.eigh(sym)[0], atol=1e-12)
        assert len(rep.histogram[1]) == 32 and rep.histogram[1].sum() == 20

    def test_atom_mass_counts_top_cluster(self):
        rep = _eig_report(np.diag([0.2, 0.5, 1.0, 1.0, 1.0]))
        assert rep.atom_mass_near_max == pytest.approx(0.6)


class TestEmpiricalMeasure:
    def test_atom_isolation(self):
        rep = _eig_report(np.diag([0.53, 0.81, 1.07, 1.33, 2.0, 2.0, 2.0, 2.0]))
        mu = empirical_measure(rep, 0.25, atom_window=0.01)
        assert mu.atoms == ((2.0, 0.5),)
        assert mu.density.mass() == pytest.approx(0.5, abs=1e-9)

    def test_bin_edges_align_to_width(self):
        rep = _eig_report(np.diag([0.53, 0.81, 1.07, 1.33, 2.0, 2.0, 2.0, 2.0]))
        mu = empirical_measure(rep, 0.25, atom_window=0.01)
        assert mu.density.left / 0.25 == pytest.approx(round(mu.density.left / 0.25))
        assert mu.density.right / 0.25 == pytest.approx(round(mu.density.right / 0.25))

    def test_fully_degenerate_becomes_one_atom(self):
        mu = empirical_measure(_eig_report(np.eye(6)), 0.1, atom_window=0.01)
        assert mu.atoms == ((1.0, 1.0),)
        assert mu.density is None

    def test_density_only_mass_is_one(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((30, 30))
        mu = empirical_measure(_eig_report((a + a.T) / 2.0), 0.5)
        assert mu.atoms == ()
        assert mu.density.mass() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive_bin_width(self):
        with pytest.raises(ValueError):
            empirical_measure(_eig_report(np.eye(4)), 0.0)


class TestModelFimSample:
    @pytest.mark.parametrize("alpha", [0.6, 1.0], ids=["zero_columns", "alpha_1"])
    def test_bitwise_equal_to_serial_loop(self, alpha):
        args = (48, [1.0, 0.9, 1.1, 1.2], [1.0, 1.3, 0.8, 1.1], [alpha] * 3, [1.7, 1.3, 0.9])
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = model_fim_sample(*args, rng)
        assert np.array_equal(got, reference_model_fim(*args, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_linear_model_is_depth_identity(self):
        rng = np.random.default_rng(4)
        h = model_fim_sample(64, [1.0] * 3, [1.0] * 3, [1.0] * 2, [1.0] * 2, rng)
        assert np.abs(np.linalg.eigvalsh(h) - 3.0).max() < 1e-10

    def test_trace_tracks_mean_recursion(self):
        # E[tr H / M] = 1 + a + a^2 for constant alpha = a, unit scales
        rng = np.random.default_rng(3)
        h = model_fim_sample(400, [1.0] * 3, [1.0] * 3, [0.75] * 2, [1.0] * 2, rng)
        assert np.trace(h) / 400 == pytest.approx(2.3125, abs=0.05)
        assert np.linalg.eigvalsh(h)[0] > -1e-10

    def test_rejects_mismatched_lengths(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            model_fim_sample(16, [1.0] * 3, [1.0] * 2, [0.5] * 2, [1.0] * 2, rng)
        with pytest.raises(ValueError):
            model_fim_sample(16, [1.0] * 3, [1.0] * 3, [0.5] * 1, [1.0] * 2, rng)


class TestFreenessProbe:
    def test_alternating_moments_shrink_with_width(self):
        rng = np.random.default_rng(11)
        p32 = freeness_probe(32, 30, rng)
        p256 = freeness_probe(256, 30, rng)
        assert len(p32.moments) == 30
        assert p256.median_abs < p32.median_abs

    def test_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            freeness_probe(16, 10, rng)
        with pytest.raises(ValueError):
            freeness_probe(32, 0, rng)
