"""Tests for the finite-width simulator: sampling, FIM builders, spectra."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    constant_schedule,
    dual_fim,
    dual_fim_dense,
    forward_trace,
    freeness_probe,
    ntk_block_matrix,
    reference_dual_fim,
    reference_model_fim,
    reference_trace,
)

from isospec import _openblas, rmtsim
from isospec.freeconv import LayerSchedule, TwoAtomJacobianLaw
from isospec.meanfield import HardTanh, Linear, tune_constant_q
from isospec.rmtsim import (
    OrthogonalNet,
    empirical_measure,
    model_fim_sample,
    near_top_mask,
    network_fim_sample,
    normalized_input,
    sample_haar_orthogonal,
)
from isospec.specmeasure import NumericalError


def _numpy_haar(M, rng):
    """The Haar draw through np.linalg.qr, with the sign bits of R's
    diagonal: the reference of both paths."""
    q, r = np.linalg.qr(rng.standard_normal((M, M)))
    return q * np.copysign(1.0, np.diagonal(r))


class _SingularDraws:
    """default_rng(seed)'s stream, except that every Gaussian of two
    columns or more has a zero second column, so the diagonal of its R
    has a 0. `draws` counts the Gaussians drawn."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))  # default_rng(seed)'s stream
        self.draws = 0

    def random(self, size):
        return self.rng.random(size)

    def standard_normal(self, size):
        a = self.rng.standard_normal(size)
        a[:, 1:2] = 0.0
        self.draws += 1
        return a


@pytest.fixture(params=["lapack", "fallback"])
def haar_path(request, monkeypatch):
    """The draw through numpy's OpenBLAS, or with the lookup forced to
    find nothing, through np.linalg.qr. An explicit Q is numpy's QR on
    both."""
    if request.param == "fallback":
        monkeypatch.setattr(_openblas, "_library", lambda: None)
    elif not _openblas.found():
        pytest.skip("numpy bundles no OpenBLAS here")
    return request.param


needs_openblas = pytest.mark.skipif(not _openblas.found(),
                                    reason="numpy bundles no OpenBLAS here")

# max |H - oracle| over max |H| where simulate keeps each layer as its
# reflectors and the oracle forms Q: rounding, at most 6.6e-15 measured
# at M = 64, 300 and 1000
H_TOL = 1e-13


def _near(got, want):
    return np.abs(got - want).max() <= H_TOL * np.abs(want).max()


def _formed_q(f, tau):
    """The Q of the reflectors (F, tau): dormqr applied to I."""
    q = np.eye(len(f), order="F")
    _openblas.dormqr(f, tau, q, np.empty(_openblas.lwork(len(f))))
    return q


def _dense(layer):
    """The explicit W of a drawn layer: the Q of its reflectors times its
    scale, or the layer itself where it is explicit already."""
    if not isinstance(layer, rmtsim._Householder):
        return layer
    return np.ascontiguousarray(_formed_q(layer.f, layer.tau) * layer.scale)


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
        # the draw makes no call into the library, found or not
        rng, ref = np.random.default_rng(M), np.random.default_rng(M)
        q = sample_haar_orthogonal(M, rng)
        assert q.flags.c_contiguous
        assert q.tobytes() == _numpy_haar(M, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_singular_draw_is_kept_with_unit_signs(self, haar_path):
        # R[1, 1] = 0: its sign bit still gives a sign of +-1, and the
        # Householder Q is orthogonal, so the one Gaussian drawn is used
        rng, ref = _SingularDraws(3), _SingularDraws(3)
        q = sample_haar_orthogonal(16, rng)
        q0, r = np.linalg.qr(_SingularDraws(3).standard_normal((16, 16)))
        assert r[1, 1] == 0.0
        assert rng.draws == 1
        assert q.tobytes() == _numpy_haar(16, ref).tobytes()
        assert np.abs(q.T @ q - np.eye(16)).max() < 1e-12
        signs = q[0] / q0[0]
        assert np.array_equal(np.abs(signs), np.ones(16))
        assert np.array_equal(q, q0 * signs)

    def test_importing_the_cli_looks_up_no_library(self):
        code = "import isospec.cli, isospec._openblas as o; print(o._library.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"


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


def _reflectors(M, seed=0):
    """(F, tau) of one fresh draw, as simulate checks it."""
    rng = np.random.default_rng(seed)
    f, tau, _ = rmtsim._householder_draw(M, rng, np.empty(_openblas.lwork(M)))
    return f, tau


@needs_openblas
class TestCheckReflectors:
    """The O(M^2) check of a fresh draw, on its reflectors alone."""

    # F[i + 1:, i] is reflector i's tail; the check sums the tails in bands
    # of TILE reflectors, so 127 and 128 sit on either side of a band edge
    @pytest.mark.parametrize("M", [300, 1000])
    @pytest.mark.parametrize("spot", ["first_row", "last_row", "last_reflector",
                                      "band_edge_end", "band_edge_end_last_row",
                                      "band_edge_start", "band_edge_start_last_row"])
    def test_catches_one_perturbed_entry(self, M, spot):
        at = {"first_row": (1, 0), "last_row": (M - 1, 0), "last_reflector": (M - 1, M - 2),
              "band_edge_end": (128, 127), "band_edge_end_last_row": (M - 1, 127),
              "band_edge_start": (129, 128), "band_edge_start_last_row": (M - 1, 128)}[spot]
        f, tau = _reflectors(M, M)
        rmtsim._check_reflectors(f, tau, 1)
        f[at] += 1e-6
        with pytest.raises(NumericalError, match="layer 1: W/sigma off orthogonal"):
            rmtsim._check_reflectors(f, tau, 1)

    def test_catches_a_changed_tau(self):
        f, tau = _reflectors(200)
        tau[77] *= 1.0 + 1e-6
        with pytest.raises(NumericalError, match="layer 4: W/sigma off orthogonal"):
            rmtsim._check_reflectors(f, tau, 4)

    @pytest.mark.parametrize("where", ["reflector", "tau"])
    def test_nan_fails(self, where):
        f, tau = _reflectors(40)
        if where == "tau":
            tau[3] = math.nan
        else:
            f[10, 3] = math.nan
        with pytest.raises(NumericalError, match="off orthogonal by nan"):
            rmtsim._check_reflectors(f, tau, 1)

    # one reflector entry or one tau moved by `size`: the bound stays at or
    # above the Gram defect that _check_layer measures on the formed Q
    @pytest.mark.parametrize("M", [129, 300])
    @pytest.mark.parametrize("size", [1e-12, 1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("where", ["reflector", "tau"])
    def test_bound_is_at_least_the_gram_defect(self, M, size, where):
        f, tau = _reflectors(M, M)
        spots = np.random.default_rng(M).integers(0, M - 1, size=(5, 2))
        for i, j in spots:
            g, t = f.copy(order="F"), tau.copy()
            if where == "tau":
                t[j] *= 1.0 + size
            else:
                g[max(i, j + 1), j] += size
            bound = rmtsim._reflector_defect(g, t)
            q = _formed_q(g, t)
            gram = np.abs(q.T @ q - np.eye(M)).max()
            assert bound >= gram

    @pytest.mark.parametrize("s", [1e-7, 1.0, 1e160, 1e300])
    def test_any_scale_passes_and_keeps_the_sampled_weight(self, s):
        # sigma never reaches a drawn layer, only e = d sigma does: at any
        # scale the draws and their checks are those at scale 1, thin ones
        # (alpha 0.95) and full ones (alpha 0.25) alike. LayerSchedule
        # refuses a sigma^2 past the floats, so the schedule is handed over
        # as the bare fields model_fim_sample reads.
        for alpha, dense_layer in ((0.95, None), (0.25, 2)):

            def draw(sigma, alpha=alpha):
                law = TwoAtomJacobianLaw(alpha, 1.3)
                schedule = SimpleNamespace(q=(1.0,) * 4, sigma=(sigma,) * 4, jacobians=(law,) * 3)
                return model_fim_sample(200, schedule, np.random.default_rng(5))

            with np.errstate(over="ignore", invalid="ignore"):
                got = draw(s)
            want = draw(1.0)
            assert got.dense_layer == want.dense_layer == dense_layer
            assert got.dead == want.dead
            assert got.ortho_defect_max == want.ortho_defect_max < rmtsim.ORTHO_TOL

    def test_peak_memory_about_one_band(self):
        M = 1000
        f, tau = _reflectors(M)
        tracemalloc.start()
        try:
            rmtsim._check_reflectors(f, tau, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * rmtsim.TILE * M


class TestNormalizedInput:
    @settings(max_examples=20, deadline=None)
    @given(
        M=st.integers(min_value=4, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_norm_is_exact(self, M, seed):
        x = normalized_input(M, np.random.default_rng(seed))
        assert float(x @ x) / M == pytest.approx(1.0, rel=1e-12)


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
        h_rec = dual_fim(net.weights, net.activation, x).matrix()
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
        h = dual_fim(net.weights, net.activation, x).matrix()
        assert np.abs(np.linalg.eigvalsh(h) - depth).max() < 1e-9

    def test_fim_is_positive_semidefinite(self):
        net = OrthogonalNet.sample(24, 4, HardTanh(s=0.5, g=1.3), seed=9)
        x = normalized_input(24, np.random.default_rng(9))
        h = dual_fim(net.weights, net.activation, x).matrix()
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


def _bend_third_draw(monkeypatch):
    """Make the third Haar draw of any kind, thin or full, leave the
    orthogonal group by 1e-6 in one entry, as its check sees it; returns
    the list of the draws made, one per layer."""
    drawn = []

    def counted(real, bend):
        def draw(*args):
            out = real(*args)
            drawn.append(1)
            if len(drawn) == 3:
                bend(out)
            return out

        return draw

    def bend_y(y):
        y[5, 0] += 1e-6

    def bend_reflectors(out):
        out[0][5, 0] += 1e-6  # F[5, 0], a reflector entry

    monkeypatch.setattr(rmtsim, "_stiefel", counted(rmtsim._stiefel, bend_y))
    monkeypatch.setattr(rmtsim, "_householder_draw",
                        counted(rmtsim._householder_draw, bend_reflectors))
    monkeypatch.setattr(rmtsim, "sample_haar_orthogonal",
                        counted(rmtsim.sample_haar_orthogonal, bend_y))
    return drawn


class TestNetworkFimSample:
    """The streamed draw: each layer drawn, checked and consumed in turn."""

    # at width 300 the conjugation takes two full panels and a remainder
    @pytest.mark.parametrize("M, depth", [(32, 1), (32, 2), (32, 5), (300, 5)],
                             ids=["1", "2", "5", "5-width300"])
    @pytest.mark.parametrize("activation", STREAM_ACTIVATIONS, ids=["linear", "hard_tanh"])
    def test_bitwise_equal_to_reference_loop(self, activation, M, depth, explicit_q):
        # dual_fim on explicit weights keeps the loop's bits; the streamed
        # draw, fed the sampled network's Q for each thin draw, takes each
        # step on the low-rank form and agrees to rounding
        sigma = list(STREAM_SIGMAS[:depth])
        x = normalized_input(M, np.random.default_rng(40 + depth))
        net = OrthogonalNet.sample(M, depth, activation, sigma, seed=depth)
        want = reference_dual_fim(net, x)
        assert _near(network_fim_sample(M, depth, activation, sigma, depth, x).matrix(), want)
        assert np.array_equal(dual_fim(net.weights, activation, x).matrix(), want)

    @pytest.mark.parametrize("model", ["network", "atoms"])
    def test_non_orthogonal_layer_is_named(self, model, monkeypatch):
        # the third draw is W_3 of the network and W_4 of the atoms model,
        # whose first W is W_2; each draw is checked before the next is made
        drawn = _bend_third_draw(monkeypatch)
        layer = 3 if model == "network" else 4
        for regime in REGIMES:
            drawn.clear()
            with pytest.raises(NumericalError, match=f"layer {layer}: W/sigma off orthogonal"):
                _draw(model, regime)
            assert len(drawn) == 3

    @pytest.mark.parametrize("model", ["network", "atoms"])
    def test_every_draw_is_checked_once(self, model, monkeypatch):
        for regime in REGIMES:
            drawn, checked = [], []

            def counted(real):
                def draw(*args):
                    drawn.append(1)
                    return real(*args)

                return draw

            def check(real):
                def checking(*args):
                    checked.append(args[2])  # the layer it names
                    return real(*args)

                return checking

            with monkeypatch.context() as patch:
                for name in ("_stiefel", "_householder_draw", "sample_haar_orthogonal"):
                    patch.setattr(rmtsim, name, counted(getattr(rmtsim, name)))
                for name in ("_check_columns", "_check_reflectors"):
                    patch.setattr(rmtsim, name, check(getattr(rmtsim, name)))
                sample = _draw(model, regime)
            first = 1 if model == "network" else 2
            assert checked == list(range(first, first + len(drawn)))
            assert len(drawn) == (6 if model == "network" else 5)
            assert 0.0 <= sample.ortho_defect_max < rmtsim.ORTHO_TOL

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


class TestFimStep:
    # BLAS may sum a panel's entries in another order than the full
    # products sum them, so the last bits can differ (they do at M = 300)
    @pytest.mark.parametrize("M", [32, 128, 300])
    def test_panels_give_the_full_products_to_rounding(self, M):
        rng = np.random.default_rng(M)
        w, h, d = rng.standard_normal((M, M)), rng.standard_normal((M, M)), rng.random(M)
        want = w @ (d[:, None] * h * d[None, :]) @ w.T + 0.7 * np.eye(M)
        layer = [w, d, 0.7]
        rmtsim._fim_step(h, np.empty(M * min(M, rmtsim.TILE)), layer)
        assert layer == []
        assert np.abs(h - want).max() <= 1e-13 * np.abs(want).max()

    # blocks of TILE reflectors: one, a full one, a full one and one
    # reflector, two full ones and a part
    @needs_openblas
    @pytest.mark.parametrize("M", [2, 3, 127, 128, 129, 300])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_reflectors_give_the_formed_product_to_rounding(self, M, scaled):
        rng = np.random.default_rng(M)
        f, tau, signs = rmtsim._householder_draw(M, rng, np.empty(_openblas.lwork(M)))
        layer = rmtsim._Householder(f, tau, 1.3 * signs, None)
        w = _dense(layer)
        h = rng.standard_normal((M, M))
        h += h.T
        d = rng.random(M) if scaled else np.ones(M)
        want = w @ (d[:, None] * h * d[None, :]) @ w.T + 0.7 * np.eye(M)
        # the step takes e = d * scale, as _fim_recursion forms it
        step = [layer, d * layer.scale, 0.7]
        k = min(M, rmtsim.TILE)
        rmtsim._fim_step(h, np.empty(k * (M + 2 * k)), step)
        assert step == []
        assert np.abs(h - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(h, h.T)

    # a temporary of the worker's thread lands in glibc's second arena and
    # stays in the process's RSS, so a dense step allocates no array: what
    # tracemalloc sees is Python objects, the same at both widths
    @pytest.mark.parametrize("M", [300, 1000])
    @pytest.mark.parametrize("kind", ["explicit", "reflectors"])
    def test_step_allocates_no_array(self, M, kind):
        if kind == "reflectors" and not _openblas.found():
            pytest.skip("numpy bundles no OpenBLAS here")
        rng = np.random.default_rng(M)
        if kind == "reflectors":
            f, tau, signs = rmtsim._householder_draw(M, rng, np.empty(_openblas.lwork(M)))
            w = rmtsim._Householder(f, tau, 1.3 * signs, None)
        else:
            w = rng.standard_normal((M, M))
        h = rng.standard_normal((M, M))
        h += h.T
        e, k = rng.random(M), min(M, rmtsim.TILE)
        work = np.empty(k * (M + 2 * k))
        tracemalloc.start()
        try:
            rmtsim._fim_step(h, work, [w, e, 0.7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024


# (activation, alpha) of draws that turn dense at their first step, and of
# draws whose H stays low-rank at every step
REGIMES = {"dense": (HardTanh(s=3.0, g=1.3), 0.25), "low_rank": (HardTanh(s=0.5, g=1.0), 0.95)}
# the step of each regime: on the calling thread, or on the worker
STEP = {"low_rank": "_low_rank_step", "dense": "_fim_step"}
# the draws of either kind, thin and full, on either path
DRAWS = ("_stiefel", "_householder_draw", "sample_haar_orthogonal")


def _draw(model: str, regime: str, M: int = 24, depth: int = 6):
    """One draw of either simulate model, by default small and six layers
    deep, checked to be in `regime`."""
    activation, alpha = REGIMES[regime]
    if model == "network":
        x = normalized_input(M, np.random.default_rng(0))
        sample = network_fim_sample(M, depth, activation, 1.0, 0, x)
    else:
        sample = model_fim_sample(M, constant_schedule(depth, 1.0, 1.1, alpha, 1.3),
                                  np.random.default_rng(0))
    assert sample.dense_layer == (None if regime == "low_rank" else 2)
    return sample


class _WorkerChecks:
    """While H is low-rank each step runs on the calling thread; once H is
    dense the one worker thread conjugates H while the caller draws. Each
    property holds in every regime of the path in use. The classes below
    run these on each path."""

    def test_repeatable_under_fast_thread_switching(self, model):
        for regime in REGIMES:
            want = _draw(model, regime).eigenvalues()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(5):
                    assert np.array_equal(_draw(model, regime).eigenvalues(), want)
            finally:
                sys.setswitchinterval(interval)

    def test_no_thread_outlives_a_call(self, model):
        for regime in REGIMES:
            before = threading.active_count()
            _draw(model, regime)
            assert threading.active_count() == before

    def test_worker_failure_reaches_caller(self, model, monkeypatch):
        for regime in REGIMES:
            threads = []
            real = getattr(rmtsim, STEP[regime])

            def failing_third(*args, real=real):
                threads.append(threading.current_thread())
                if len(threads) == 3:
                    raise RuntimeError("job 3 failed")
                return real(*args)

            before = threading.active_count()
            with monkeypatch.context() as patch, pytest.raises(RuntimeError, match="job 3 failed"):
                patch.setattr(rmtsim, STEP[regime], failing_third)
                _draw(model, regime)
            assert threading.active_count() == before
            assert len(threads) == 3
            on_caller = regime == "low_rank"
            assert all((t is threading.main_thread()) == on_caller for t in threads)

    def test_steps_run_under_the_callers_error_state(self, model, monkeypatch):
        for regime in REGIMES:
            real = getattr(rmtsim, STEP[regime])

            def dividing(*args, real=real):
                np.divide(1.0, np.zeros(1))
                return real(*args)

            with monkeypatch.context() as patch, np.errstate(divide="raise"), \
                    pytest.raises(FloatingPointError):
                patch.setattr(rmtsim, STEP[regime], dividing)
                _draw(model, regime)


@pytest.mark.parametrize("model", ["network", "atoms"])
class TestFimRecursionWorker(_WorkerChecks):
    """The worker's checks on the path numpy's build takes, and those that
    hold on numpy's OpenBLAS alone."""

    def test_at_most_one_earlier_draw_alive(self, model, monkeypatch):
        # nothing is drawn ahead: a new draw sees at most the one before,
        # as the low-rank form's V or as the layer in conjugation
        for regime in REGIMES:
            draws, alive = [], []

            def tracked(real):
                def draw(*args):
                    alive.append(sum(ref() is not None for ref in draws))
                    out = real(*args)
                    draws.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
                    return out

                return draw

            with monkeypatch.context() as patch:
                for name in DRAWS:
                    patch.setattr(rmtsim, name, tracked(getattr(rmtsim, name)))
                _draw(model, regime)
            assert len(draws) == (6 if model == "network" else 5)
            assert max(alive) <= 1

    def test_peak_memory_below_four_matrices(self, model):
        # low-rank: thin draws and V; dense: H, the layer in conjugation,
        # the layer being drawn, one M x TILE panel
        M = 768
        for regime in REGIMES:
            tracemalloc.start()
            try:
                _draw(model, regime, M, 8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.9 * 8 * M * M

    @needs_openblas
    def test_step_failure_wins_over_the_next_draws(self, model, monkeypatch):
        # low-rank, step 2 runs here before its layer is drawn, so nothing
        # is drawn after it; dense, it runs on the worker while this thread
        # draws the next layer, whose failure a serial loop never reaches
        # and which loses to it
        for regime, step, draw, drawn in (("low_rank", "_low_rank_step", "_stiefel",
                                           2 if model == "network" else 1),
                                          ("dense", "_fim_step", "_householder_draw", 3)):
            steps, draws = [], []
            real_step, real_draw = getattr(rmtsim, step), getattr(rmtsim, draw)

            def failing_second(*args, real=real_step):
                steps.append(1)
                if len(steps) == 2:
                    raise RuntimeError("step 2 failed")
                return real(*args)

            def failing_draw(*args, real=real_draw):
                draws.append(1)
                if len(draws) == 3:
                    raise NumericalError("draw failed")
                return real(*args)

            monkeypatch.setattr(rmtsim, step, failing_second)
            monkeypatch.setattr(rmtsim, draw, failing_draw)
            with pytest.raises(RuntimeError, match="step 2 failed") as err:
                _draw(model, regime)
            monkeypatch.undo()
            assert len(draws) == drawn
            if regime == "dense":
                assert isinstance(err.value.__context__, NumericalError)
            else:
                assert err.value.__context__ is None


@pytest.mark.usefixtures("haar_path")
@pytest.mark.parametrize("haar_path", ["fallback"], indirect=True)
@pytest.mark.parametrize("model", ["network", "atoms"])
class TestFimRecursionWorkerFallback(_WorkerChecks):
    """The worker's checks where numpy bundles no OpenBLAS: the same thin
    draws while H is low-rank, and np.linalg.qr's explicit Q once it is
    dense."""


class TestNtkBlockMatrix:
    def test_single_sample_is_scaled_fim(self):
        net = OrthogonalNet.sample(12, 3, HardTanh(s=1.0, g=1.0), seed=10)
        x = normalized_input(12, np.random.default_rng(10))
        theta = ntk_block_matrix(net, [x])
        h = dual_fim(net.weights, net.activation, x).matrix()
        assert np.abs(theta - 12 * h).max() < 1e-8

    def test_trace_identity(self):
        net = OrthogonalNet.sample(16, 3, HardTanh(s=1.0, g=1.0), seed=11)
        rng = np.random.default_rng(11)
        inputs = [normalized_input(16, rng) for _ in range(3)]
        theta = ntk_block_matrix(net, inputs)
        # both sides in normalized trace: tr(A) / dim(A)
        lhs = np.trace(theta / 16) / (3 * 16)
        rhs = sum(
            np.trace(dual_fim(net.weights, net.activation, x).matrix()) / 16
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


class TestEigSym:
    def test_identity_spectrum(self):
        vals = np.linalg.eigvalsh(np.eye(12))
        np.testing.assert_allclose(vals, 1.0)
        assert vals[-1] == 1.0 and vals.mean() == 1.0
        assert near_top_mask(vals, 0.01).mean() == 1.0

    def test_diagonal_spectrum_statistics(self):
        vals = np.linalg.eigvalsh(np.diag(np.arange(1.0, 11.0)))
        assert vals[-1] == pytest.approx(10.0)
        assert vals.mean() == pytest.approx(5.5)
        assert vals[0] <= vals[-1]

    def test_matches_direct_solver(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 20))
        sym = (a + a.T) / 2.0
        vals = np.linalg.eigvalsh(sym)
        np.testing.assert_allclose(vals, np.linalg.eigh(sym)[0], atol=1e-12)

    def test_atom_mass_counts_top_cluster(self):
        vals = np.linalg.eigvalsh(np.diag([0.2, 0.5, 1.0, 1.0, 1.0]))
        assert near_top_mask(vals, 0.01).mean() == pytest.approx(0.6)


class TestEmpiricalMeasure:
    def test_atom_isolation(self):
        vals = np.linalg.eigvalsh(np.diag([0.53, 0.81, 1.07, 1.33, 2.0, 2.0, 2.0, 2.0]))
        mu = empirical_measure(vals, 0.25, atom_window=0.01)
        assert mu.atoms == ((2.0, 0.5),)
        assert mu.density.mass() == pytest.approx(0.5, abs=1e-9)

    def test_bin_edges_align_to_width(self):
        vals = np.linalg.eigvalsh(np.diag([0.53, 0.81, 1.07, 1.33, 2.0, 2.0, 2.0, 2.0]))
        mu = empirical_measure(vals, 0.25, atom_window=0.01)
        assert mu.density.left / 0.25 == pytest.approx(round(mu.density.left / 0.25))
        assert mu.density.right / 0.25 == pytest.approx(round(mu.density.right / 0.25))

    def test_fully_degenerate_becomes_one_atom(self):
        mu = empirical_measure(np.linalg.eigvalsh(np.eye(6)), 0.1, atom_window=0.01)
        assert mu.atoms == ((1.0, 1.0),)
        assert mu.density is None

    def test_density_only_mass_is_one(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((30, 30))
        mu = empirical_measure(np.linalg.eigvalsh((a + a.T) / 2.0), 0.5)
        assert mu.atoms == ()
        assert mu.density.mass() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive_bin_width(self):
        with pytest.raises(ValueError):
            empirical_measure(np.linalg.eigvalsh(np.eye(4)), 0.0)

    @pytest.mark.parametrize("bin_width", [1e-9, 1e-320])
    def test_rejects_a_width_past_the_bin_bound(self, bin_width):
        # checked before the edges are made: 1e-9 would need ~1e9 of them
        vals = np.linalg.eigvalsh(np.diag([0.5, 1.0, 2.0]))
        with pytest.raises(ValueError, match="more than 100000 bins"):
            empirical_measure(vals, bin_width)


class TestModelFimSample:
    @pytest.mark.parametrize("M, alpha", [(48, 0.6), (48, 1.0), (300, 0.6), (300, 1.0)],
                             ids=["zero_columns", "alpha_1", "zero_columns-width300",
                                  "alpha_1-width300"])
    def test_bitwise_equal_to_serial_loop(self, M, alpha, explicit_q):
        # fed the loop's Q for each thin draw, the model takes its steps on
        # the low-rank form, or applies the reflectors of the loop's
        # Gaussians once dense: the loop's H to rounding, and the rng left
        # in the same state
        laws = ([1.0, 0.9, 1.1, 1.2], [1.0, 1.3, 0.8, 1.1], [alpha] * 3, [1.7, 1.3, 0.9])
        q, sigma, alphas, gammas = laws
        schedule = LayerSchedule(q, sigma, tuple(map(TwoAtomJacobianLaw, alphas, gammas)))
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = model_fim_sample(M, schedule, rng)
        assert _near(got.matrix(), reference_model_fim(M, *laws, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @needs_openblas
    @pytest.mark.parametrize("regime", ["low_rank", "dense"])
    def test_both_paths_count_the_same_dead_units(self, regime, monkeypatch):
        # one step shape on both paths: D's zeros are counted alike, and
        # the rng is read alike
        _, alpha = REGIMES[regime]
        schedule = constant_schedule(6, 1.0, 1.1, alpha, 1.3)

        def draw():
            rng = np.random.default_rng(5)
            return model_fim_sample(48, schedule, rng), rng.bit_generator.state

        got, state = draw()
        assert got.dense_layer == (None if regime == "low_rank" else 2)
        monkeypatch.setattr(_openblas, "_library", lambda: None)
        fallback, fallback_state = draw()
        assert fallback.dead == got.dead
        assert all(type(n) is int for n in got.dead)
        assert fallback_state == state

    def test_linear_model_is_depth_identity(self):
        rng = np.random.default_rng(4)
        h = model_fim_sample(64, constant_schedule(3, 1.0, 1.0, 1.0, 1.0), rng)
        assert np.abs(h.eigenvalues() - 3.0).max() < 1e-10

    def test_trace_tracks_mean_recursion(self):
        # E[tr H / M] = 1 + a + a^2 for constant alpha = a, unit scales
        rng = np.random.default_rng(3)
        h = model_fim_sample(400, constant_schedule(3, 1.0, 1.0, 0.75, 1.0), rng)
        assert np.trace(h.matrix()) / 400 == pytest.approx(2.3125, abs=0.05)
        assert h.eigenvalues()[0] > -1e-10


@pytest.mark.parametrize("model", ["network", "atoms"])
def test_both_paths_of_both_models_agree(haar_path, model, explicit_q):
    # fed the oracles' Q for each thin draw, both paths agree with them to
    # rounding once dense too: the reflectors of the oracles' Gaussians, or
    # the fallback's explicit Q, conjugate D H D where the loops conjugate
    # H by W D; both leave the rng alike
    M, depth = 130, 4
    if model == "network":
        x = normalized_input(M, np.random.default_rng(1))
        sigma = list(STREAM_SIGMAS[:depth])
        got = network_fim_sample(M, depth, HardTanh(s=0.5, g=1.3), sigma, 2, x).matrix()
        want = reference_dual_fim(
            OrthogonalNet.sample(M, depth, HardTanh(s=0.5, g=1.3), sigma, seed=2), x)
    else:
        laws = ([1.0, 0.9, 1.1, 1.2], [1.0, 1.3, 0.8, 1.1], [0.6] * 3, [1.7, 1.3, 0.9])
        schedule = LayerSchedule(laws[0], laws[1], tuple(map(TwoAtomJacobianLaw, *laws[2:])))
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = model_fim_sample(M, schedule, rng).matrix()
        want = reference_model_fim(M, *laws, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert _near(got, want)


# max |eigenvalue - the oracle's| over max |eigenvalue| of the low-rank form
# against the oracles' dense recursion
EIG_TOL = 1e-12
# the benchmark's tuning: H stays low-rank at every step
TUNED = tune_constant_q(16, 0.1)


def _within_gate(sample, want_h):
    want = np.linalg.eigvalsh(want_h)
    return np.abs(sample.eigenvalues() - want).max() <= EIG_TOL * np.abs(want).max()


def _network_case(M, depth, activation, sigma, seed):
    """(sample, oracle's H) of one network draw at the simulate input."""
    x = normalized_input(M, np.random.default_rng(seed ^ 0xA5A5))
    sample = network_fim_sample(M, depth, activation, sigma, seed, x)
    net = OrthogonalNet.sample(M, depth, activation, sigma, seed=seed)
    return sample, reference_dual_fim(net, x)


def _atoms_case(M, laws, rng, ref_rng):
    """(sample, oracle's H) of one atoms-model draw along (q, sigma,
    alpha, gamma) lists."""
    schedule = LayerSchedule(laws[0], laws[1], tuple(map(TwoAtomJacobianLaw, *laws[2:])))
    sample = model_fim_sample(M, schedule, rng)
    return sample, reference_model_fim(M, *laws, ref_rng)


def _constant_laws(depth, q, sigma, alpha, gamma):
    return [q] * depth, [sigma] * depth, [alpha] * (depth - 1), [gamma] * (depth - 1)


SHAPES = [(M, depth, seed) for M in (24, 257) for depth in (2, 8, 16) for seed in range(3)]
SHAPES += [(1000, 16, 1)]


class TestLowRankForm:
    """H kept as a I + V T V^T against the oracles' dense recursions: fed
    their Q for each thin draw (explicit_q), to rounding in H's
    eigenvalues."""

    @pytest.mark.parametrize("M, depth, seed", SHAPES)
    def test_network_matches_the_oracle(self, M, depth, seed, explicit_q):
        sample, want = _network_case(M, depth, TUNED.spec, TUNED.params.sigma, seed)
        assert sample.dense_layer is None
        assert _within_gate(sample, want)

    @pytest.mark.parametrize("M, depth, seed", SHAPES)
    def test_atoms_model_matches_the_oracle(self, M, depth, seed, explicit_q):
        p = TUNED.params
        laws = _constant_laws(depth, p.q, p.sigma, p.alpha, p.gamma)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sample, want = _atoms_case(M, laws, rng, ref_rng)
        assert sample.dense_layer is None
        assert _within_gate(sample, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("M", [24, 257])
    def test_half_alive_turns_dense_partway(self, M, explicit_q):
        # about M / 2 dead units a layer: some draws turn dense at the first
        # step, some at the second
        dense_at = set()
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sample, want = _atoms_case(M, _constant_laws(8, 1.0, 1.0, 0.5, 1.0), rng, ref_rng)
            dense_at.add(sample.dense_layer)
            assert _within_gate(sample, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert dense_at == {2, 3}

    def test_unequal_live_magnitudes_turn_dense(self):
        # the live units of the second step's D differ in |d_i|: that step
        # forms H and conjugates it by its whole Q, the first by Q B
        M = 64
        rng = np.random.default_rng(3)
        want = np.eye(M)
        with rmtsim._recursion(M, 1.0) as fim:
            for ell in range(3):
                q = sample_haar_orthogonal(M, rng)
                d = rng.uniform(0.5, 1.5, M) if ell == 1 else np.ones(M)
                d[:5] = 0.0
                want = np.eye(M) + q @ (d[:, None] * want * d[None, :]) @ q.T
                b = fim.step(d, 1.0)
                if b is None:
                    fim.dense(q, d, 1.0)
                else:
                    fim.v = q @ b
            sample = fim.result(None)
        assert sample.dense_layer == 3
        assert sample.dead == (5, 5, 5)
        assert _within_gate(sample, (want + want.T) / 2.0)

    def test_linear_network_is_one_atom(self, explicit_q):
        sample, want = _network_case(64, 8, Linear(1.0), 1.0, 0)
        a, multiplicity = sample.top_atom()
        assert multiplicity == 64 and sample.dead == (0,) * 7
        assert np.all(sample.eigenvalues() == a)
        assert _within_gate(sample, want)

    def test_top_atom_is_the_largest_eigenvalue(self):
        sample, _ = _network_case(257, 8, TUNED.spec, TUNED.params.sigma, 1)
        vals = sample.eigenvalues()
        a, multiplicity = sample.top_atom()
        assert 257 / 2 < multiplicity == 257 - sum(sample.dead) < 257
        assert np.count_nonzero(vals == a) >= multiplicity
        assert vals[-1] == pytest.approx(a, rel=1e-12)

    def test_formed_matrix_is_symmetric_and_matches(self, explicit_q):
        sample, want = _network_case(257, 8, TUNED.spec, TUNED.params.sigma, 2)
        h = sample.matrix()
        assert np.array_equal(h, h.T)
        assert _near(h, want)

    @pytest.mark.parametrize("model", ["network", "atoms"])
    def test_rank_deficient_draws_leave_a_serial_loops_numbers(self, model, monkeypatch):
        # every thin Gaussian of two columns or more has R[1, 1] = 0: each
        # is kept, so each layer reads one, as a serial loop does, and its
        # Y passes the check, so the top atom's identities hold
        M, depth = 64, 6
        activation, alpha = REGIMES["low_rank"]
        if model == "network":
            x = normalized_input(M, np.random.default_rng(5))
            rngs = []

            def singular(seed):
                rngs.append(_SingularDraws(seed))
                return rngs[-1]

            monkeypatch.setattr(np.random, "default_rng", singular)
            sample = network_fim_sample(M, depth, activation, 1.0, 5, x)
            (rng,) = rngs
            assert rng.draws == depth
        else:
            rng = _SingularDraws(5)
            sample = model_fim_sample(M, constant_schedule(depth, 1.0, 1.1, alpha, 1.3), rng)
            assert rng.draws == depth - 1
        assert sample.dense_layer is None and sum(sample.dead) > 0
        assert 0.0 <= sample.ortho_defect_max < rmtsim.ORTHO_TOL
        assert sample.top_atom()[1] == M - sum(sample.dead)


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


@pytest.mark.parametrize("model", ["network", "atoms"])
def test_low_rank_draws_are_the_same_bits_on_both_paths(model, monkeypatch):
    # a low-rank draw is numpy's alone: with the library forced to be
    # missing it reads the same Gaussians and leaves the same bits
    want = _draw(model, "low_rank", 100, 8)
    monkeypatch.setattr(_openblas, "_library", lambda: None)
    got = _draw(model, "low_rank", 100, 8)
    assert got.a == want.a and got.dead == want.dead
    assert got.v.tobytes() == want.v.tobytes() and got.t.tobytes() == want.t.tobytes()
    assert got.ortho_defect_max == want.ortho_defect_max


@pytest.mark.parametrize("M", [24, 100, 257])
def test_top_atom_identities_of_each_low_rank_draw(haar_path, M):
    # while H stays low-rank, its top atom has multiplicity M minus the
    # dead units, and the atoms model's top atom is the theory's scalar
    # recursion a <- q + sigma^2 gamma a, to rounding
    p = TUNED.params
    schedules = [constant_schedule(8, p.q, p.sigma, p.alpha, p.gamma),
                 constant_schedule(6, 1.0, 1.1, 0.9, 1.3)]
    low_rank = 0
    for seed in range(3):
        x = normalized_input(M, np.random.default_rng(seed ^ 0xA5A5))
        draws = [(network_fim_sample(M, 8, TUNED.spec, p.sigma, seed, x), None)]
        draws += [(model_fim_sample(M, sched, np.random.default_rng(seed)), sched)
                  for sched in schedules]
        for sample, sched in draws:
            if sample.dense_layer is not None:
                continue
            low_rank += 1
            a, multiplicity = sample.top_atom()
            assert multiplicity == M - sum(sample.dead)
            if sched is not None:
                want = sched.q[0]
                for q, s, nu in zip(sched.q[1:], sched.sigma[1:], sched.jacobians):
                    want = q + s * s * nu.gamma * want
                assert a == pytest.approx(want, rel=1e-12)
    assert low_rank >= 7


@pytest.mark.parametrize("model", ["network", "atoms"])
def test_low_rank_draw_allocates_below_one_matrix(model):
    # the benchmark's simulate commands at M = 1000, depth 16, seed 1:
    # thin draws hold O(M m) doubles, and no M x M array is made
    M, p = 1000, TUNED.params
    tracemalloc.start()
    try:
        if model == "network":
            x = normalized_input(M, np.random.default_rng(1 ^ 0xA5A5))
            sample = network_fim_sample(M, 16, TUNED.spec, p.sigma, 1, x)
        else:
            schedule = constant_schedule(16, p.q, p.sigma, p.alpha, p.gamma)
            sample = model_fim_sample(M, schedule, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.dense_layer is None
    assert peak < 8 * M * M


def _law_statistics(vals):
    """(top-atom fraction, mean, standard deviation of the rest) of one
    spectrum, the top atom being the eigenvalues within 1e-9 of the
    largest, relatively."""
    top = near_top_mask(vals, 1e-9)
    rest = vals[~top]
    return top.mean(), rest.mean(), rest.std()


@pytest.mark.parametrize("model", ["network", "atoms"])
def test_thin_draws_follow_the_dense_law(model):
    # Fixed before it was first run: 30 thin draws (seeds 0-29) against 30
    # of the oracles' dense loops (seeds 1000-1029) at M = 128, depth 6,
    # both low-rank throughout. For each of the top-atom fraction and the
    # mean and standard deviation of the rest of the spectrum, the two
    # means over seeds differ by at most 4 standard errors of their
    # difference.
    M, depth, seeds = 128, 6, 30
    activation, alpha = REGIMES["low_rank"]
    laws = _constant_laws(depth, 1.0, 1.0, alpha, 1.1)
    schedule = LayerSchedule(laws[0], laws[1], tuple(map(TwoAtomJacobianLaw, *laws[2:])))

    def thin(seed):
        if model == "network":
            x = normalized_input(M, np.random.default_rng(seed ^ 0xA5A5))
            sample = network_fim_sample(M, depth, activation, 1.0, seed, x)
        else:
            sample = model_fim_sample(M, schedule, np.random.default_rng(seed))
        assert sample.dense_layer is None
        return sample.eigenvalues()

    def dense(seed):
        if model == "network":
            x = normalized_input(M, np.random.default_rng(seed ^ 0xA5A5))
            net = OrthogonalNet.sample(M, depth, activation, 1.0, seed=seed)
            h = reference_dual_fim(net, x)
        else:
            h = reference_model_fim(M, *laws, np.random.default_rng(seed))
        return np.linalg.eigvalsh(h)

    got = np.array([_law_statistics(thin(seed)) for seed in range(seeds)])
    want = np.array([_law_statistics(dense(1000 + seed)) for seed in range(seeds)])
    gap = np.abs(got.mean(axis=0) - want.mean(axis=0))
    se = np.sqrt((got.var(axis=0, ddof=1) + want.var(axis=0, ddof=1)) / seeds)
    assert np.all(gap <= 4.0 * se), (gap / se).tolist()


def test_thin_draw_keeps_the_gram_matrix():
    # Q C for an orthogonal Q keeps C^T C: the thin draw's Y R does too, so
    # it keeps the angles between V's columns and the network's input
    M, rng = 300, np.random.default_rng(7)
    c = rng.standard_normal((M, 12)) @ rng.standard_normal((12, 12))
    draws = rmtsim._HaarDraws(M, np.random.default_rng(8))
    qc = draws.thin(c, 2)
    gram = c.T @ c
    assert np.abs(qc.T @ qc - gram).max() <= 1e-12 * np.abs(gram).max()
    assert 0.0 <= draws.defect < rmtsim.ORTHO_TOL
    y = draws.thin(np.linalg.qr(c)[0], 3, orthonormal=True)
    assert np.abs(y.T @ y - np.eye(12)).max() < rmtsim.ORTHO_TOL
