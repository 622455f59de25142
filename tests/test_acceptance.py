"""Acceptance checks: end-to-end agreement between the limit theory and
finite random-network measurements, one test per criterion.

Each test appends a one-line PASS/FAIL verdict to the terminal summary
(see conftest.py) so the whole gate can be read at a glance.
"""

import math
import time

import numpy as np
import pytest
from oracles import constant_schedule, dual_fim_dense, freeness_probe, ntk_block_matrix

from isospec.freeconv import (
    AsymptoticRegime,
    LayerSchedule,
    TwoAtomJacobianLaw,
    asymptotic_max,
    free_mult_conv_two_atom,
    mean_track,
    propagate_schedule,
    solve_three_layer,
)
from isospec.meanfield import HardTanh, Linear, mean_field_schedule, tune_constant_q
from isospec.rmtsim import (
    OrthogonalNet,
    dual_fim,
    empirical_measure,
    model_fim_sample,
    network_fim_sample,
    normalized_input,
)
from isospec.specmeasure import (
    GridDensity,
    SpectralMeasure,
    affine_pushforward,
    distance_L1,
    moment,
    stieltjes_invert,
)
from isospec.trainlab import _group_step, lr_depth_sweep, synth_dataset


@pytest.fixture(scope="module")
def report(request):
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        request.config._acceptance_lines = lines

    def _report(criterion: str, ok: bool, detail: str) -> None:
        line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
        lines.append(line)
        print(line)

    return _report


def _dual_fim(width, depth, activation, sigma, seed):
    x = normalized_input(width, np.random.default_rng(seed ^ 0x5A5A))
    return network_fim_sample(width, depth, activation, sigma, seed, x)


def test_criterion_1_three_layer_closed_form(report):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260816)
    worst_l1 = worst_loc = worst_mass = 0.0
    for _ in range(20):
        a1, a2 = rng.uniform(0.3, 0.99, size=2)
        g1, g2 = rng.uniform(0.5, 2.0, size=2)
        schedule = LayerSchedule(
            q=(1, 1, 1),
            sigma=(1, 1, 1),
            jacobians=(TwoAtomJacobianLaw(a1, g1), TwoAtomJacobianLaw(a2, g2)),
        )
        closed = solve_three_layer(schedule)
        numeric = propagate_schedule(schedule)[-1]
        worst_l1 = max(worst_l1, distance_L1(closed, numeric, 0.05))
        for side_a, side_b in ((closed, numeric), (numeric, closed)):
            for loc, w in side_a.atoms:
                nearest = min(side_b.atoms, key=lambda p: abs(p[0] - loc), default=(np.inf, 0.0))
                worst_loc = max(worst_loc, abs(nearest[0] - loc))
                worst_mass = max(worst_mass, abs(nearest[1] - w))
    elapsed = time.monotonic() - t0
    ok = worst_l1 < 1e-2 and worst_loc < 1e-9 and worst_mass < 1e-3 and elapsed < 60
    report("1 three-layer closed form", ok,
           f"worst L1 {worst_l1:.2e}, atom loc {worst_loc:.2e}, "
           f"atom mass {worst_mass:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_depth_three_panels(report):
    M, bins = 1000, 0.31
    results = []
    for name, spec, seed in (
        ("s=0.125", HardTanh(s=0.125, g=1.0013), 0),
        ("s^2=0.125", HardTanh(s=math.sqrt(0.125), g=1.0013), 1),
        ("s=g=1", HardTanh(s=1.0, g=1.0), 2),
    ):
        t0 = time.monotonic()
        theory = propagate_schedule(mean_field_schedule(spec, 1.0, 3))[-1]
        h = _dual_fim(M, 3, spec, 1.0, seed=seed)
        emp = empirical_measure(h.eigenvalues(), bins)
        results.append((name, distance_L1(emp, theory, bins), time.monotonic() - t0))
    t0 = time.monotonic()
    half_half = constant_schedule(3, 1.0, 1.0, 0.5, 1.0)
    theory = propagate_schedule(half_half)[-1]
    h = model_fim_sample(M, half_half, np.random.default_rng(5))
    emp = empirical_measure(h.eigenvalues(), bins)
    results.append(("half-half atoms", distance_L1(emp, theory, bins),
                    time.monotonic() - t0))
    ok = all(l1 < 0.1 and dt < 300 for _, l1, dt in results)
    report("2 depth-3 panel reproduction", ok,
           ", ".join(f"{name} L1 {l1:.3f} [{dt:.0f}s]" for name, l1, dt in results))
    assert ok


def test_criterion_3_depth_linear_maximum(report):
    t0 = time.monotonic()
    depths = [2, 4, 8, 16, 32]
    details, ok = [], True
    for eps2 in (0.0, 0.1):
        target = asymptotic_max(AsymptoticRegime(q=1.0, eps1=0.1, eps2=max(eps2, 1e-12)))
        if eps2 == 0.0:
            target = 1.0
        errs = {}
        for depth in depths:
            tuned = tune_constant_q(depth, 0.1, eps2=eps2)
            ratios = []
            for si in range(3):
                seed = 7000 + 101 * depth + 13 * si + int(10 * eps2)
                h = _dual_fim(400, depth, tuned.spec, tuned.params.sigma, seed)
                ratios.append(float(h.eigenvalues()[-1]) / depth)
            errs[depth] = abs(np.mean(ratios) - target) / target
        ok = ok and errs[32] < 0.10 and errs[32] <= errs[2] + 0.02
        details.append(f"eps2={eps2}: err(L=32) {errs[32]:.3f}, err(L=2) {errs[2]:.3f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    report("3 depth-linear maximum", ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_4_concentration_at_maximum(report):
    depth, M = 16, 1000
    alpha = 1.0 - 0.1 / (depth - 1)
    h = model_fim_sample(M, constant_schedule(depth, 1.0, 1.0, alpha, 1.0),
                         np.random.default_rng(42))
    vals = h.eigenvalues()
    lam_max = vals[-1]
    frac = float(np.mean(vals >= 0.99 * lam_max))
    ok = 0.85 <= frac <= 0.95
    report("4 concentration at the maximum", ok,
           f"top-window fraction {frac:.4f}, lambda_max {lam_max:.3f}")
    assert ok


def test_criterion_5_mean_identities(report):
    spec = HardTanh(s=1.0, g=1.0)
    h = _dual_fim(1000, 3, spec, 1.0, seed=31)
    predicted = mean_track(mean_field_schedule(spec, 1.0, 3))[-1]
    rel_mean = abs(float(np.trace(h.matrix())) / 1000 / predicted - 1.0)

    net = OrthogonalNet.sample(16, 3, spec, sigma=1.0, seed=13)
    rng = np.random.default_rng(14)
    inputs = [normalized_input(16, rng) for _ in range(3)]
    theta = ntk_block_matrix(net, inputs)
    lhs = float(np.trace(theta)) / 16 / (3 * 16)
    rhs = sum(
        float(np.trace(dual_fim(net.weights, net.activation, x).matrix())) / 16
        for x in inputs
    ) / 3**2
    trace_gap = abs(lhs - rhs)

    tuned = tune_constant_q(10, 0.1)
    net10 = OrthogonalNet.sample(100, 10, tuned.spec, sigma=tuned.params.sigma, seed=77)
    rng = np.random.default_rng(78)
    theta10 = ntk_block_matrix(net10, [normalized_input(100, rng) for _ in range(10)])
    mean_eig = float(np.trace(theta10)) / 100 / 1000
    rel_kernel = abs(mean_eig - 1.0)

    ok = rel_mean < 0.02 and trace_gap < 1e-8 and rel_kernel < 0.15
    report("5 mean identities", ok,
           f"trace/M vs predicted mean {rel_mean:.4f}, block-kernel trace gap "
           f"{trace_gap:.1e}, mean kernel eig {mean_eig:.4f} vs 1")
    assert ok


def test_criterion_6_duality_exactness(report):
    M, depth = 8, 3
    net = OrthogonalNet.sample(M, depth, HardTanh(1.0, 1.0), sigma=1.0, seed=7)
    x = normalized_input(M, np.random.default_rng(8))
    h, cond = dual_fim_dense(net, x)
    ev_h = np.linalg.eigvalsh(h)
    ev_c = np.linalg.eigvalsh(cond / M)
    n_zero = int(np.sum(np.abs(ev_c) < 1e-8))
    nonzero_gap = float(np.abs(np.sort(ev_c[-M:]) - np.sort(ev_h)).max())
    ok = n_zero == depth * M**2 - M and nonzero_gap < 1e-6
    report("6 dual-formula exactness", ok,
           f"{n_zero}/184 null eigenvalues, nonzero spectrum gap {nonzero_gap:.1e}")
    assert ok


def test_criterion_7_linear_degeneracy(report):
    gaps = {}
    for depth in (1, 2, 8):
        h = _dual_fim(64, depth, Linear(1.0), 1.0, seed=depth)
        gaps[depth] = float(np.abs(h.eigenvalues() - depth).max())
    ok = all(g < 1e-9 for g in gaps.values())
    report("7 linear-network degeneracy", ok,
           ", ".join(f"L={d}: {g:.1e}" for d, g in gaps.items()))
    assert ok


@pytest.fixture(scope="module")
def lr_sweep_boundaries():
    depths = [4, 8, 16]
    etas = [10 ** (k / 8) for k in range(-10, 9)]
    tuned = tune_constant_q(16, 0.1)
    train = synth_dataset(64, 500, 10, seed=0)
    sweep = lr_depth_sweep(depths, etas, train, activation=tuned.spec, steps=500,
                           sigma=tuned.params.sigma, seed=0)
    return {d: sweep.boundary[d] for d in depths}


def test_criterion_8_boundary_band(report, lr_sweep_boundaries):
    factors = {
        d: (b / (2.0 / d) if b is not None else None)
        for d, b in lr_sweep_boundaries.items()
    }
    ok = all(f is not None and 0.5 <= f <= 1.5 for f in factors.values())
    report("8a boundary within band of 2/L", ok,
           ", ".join(f"L={d}: eta* {lr_sweep_boundaries[d]:.3f} = {f:.1f}x(2/L)"
                     for d, f in factors.items()))
    assert ok, (
        "measured divergence boundaries sit above the 2/L edge-of-stability "
        f"prediction by factors {factors}; the first gradient step decoheres "
        "the layer Jacobians and collapses the top curvature eigenvalue, so "
        "online training survives rates well past 2/L at this scale (see "
        "README, acceptance status)"
    )


def test_criterion_8_boundary_monotone(report, lr_sweep_boundaries):
    b = lr_sweep_boundaries
    ok = all(v is not None for v in b.values()) and b[4] > b[8] > b[16]
    report("8b boundary decreases with depth", ok,
           f"eta*(4) {b[4]:.3f} > eta*(8) {b[8]:.3f} > eta*(16) {b[16]:.3f}")
    assert ok


def test_criterion_9_property_suites(report):
    # gradient of the sweep's step, at one cell, vs centered finite
    # differences, sampled entries off kinks
    act = HardTanh(1.0, 1.0)
    weights = np.stack(OrthogonalNet.sample(8, 3, act, sigma=1.0, seed=3).weights)[:, None]
    rng = np.random.default_rng(99)
    x = normalized_input(8, rng)[None]
    y = np.eye(8)[:1]

    def step(stack, eta):
        """Pre-update loss of one step of the stack, stepped in place."""
        loss, _, _ = _group_step(stack, act, x, y, np.array([eta]), np.empty_like(stack[0]))
        return float(loss[0])

    stepped = weights.copy()
    step(stepped, 1.0)
    grad_err = 0.0
    h = 1e-6
    for ell in range(3):
        grad = weights[ell, 0] - stepped[ell, 0]
        for _ in range(4):
            i, j = rng.integers(0, 8, size=2)
            probes = []
            for sgn in (1.0, -1.0):
                p = weights.copy()
                p[ell, 0, i, j] += sgn * h
                probes.append(step(p, 0.0))
            fd = (probes[0] - probes[1]) / (2 * h)
            grad_err = max(grad_err, abs(fd - grad[i, j]) / max(abs(fd), 1e-12))

    # mass conservation through the measure pipeline
    schedule = mean_field_schedule(HardTanh(math.sqrt(0.125), 1.0013), 1.0, 4)
    measures = propagate_schedule(schedule)
    measures.append(affine_pushforward(measures[-1], 2.0, 0.5))
    mass_err = max(abs(moment(mu, 0) - 1.0) for mu in measures)

    # analytic Cauchy transform of a shifted semicircle, inverted on its support
    def semicircle_g(z):
        w = z - 3.0
        return (w - np.sqrt(w - 2.0) * np.sqrt(w + 2.0)) / 2.0

    z = np.linspace(1.0, 5.0, 8192) + 4e-5j
    dens, semicircle_defect, _ = stieltjes_invert(z, semicircle_g(z))

    def semicircle_cdf(xs):
        u = np.clip(np.asarray(xs, dtype=float) - 3.0, -2.0, 2.0)
        return 0.5 + u * np.sqrt(4.0 - u * u) / (4 * np.pi) + np.arcsin(u / 2.0) / np.pi

    edges = np.arange(20, 101) * 0.05
    # the density comes rescaled to mass 1; adding the defect |raw mass - 1|
    # bounds the L1 of the raw inversion
    semicircle_l1 = float(
        np.abs(np.diff(dens.cdf(edges)) - np.diff(semicircle_cdf(edges))).sum()
    ) + semicircle_defect

    # first moment is multiplicative under the numeric convolution
    mu2 = measures[1]
    nu = TwoAtomJacobianLaw(0.7, 1.3)
    window = mu2.support_max * nu.gamma * 1.1
    conv = free_mult_conv_two_atom(mu2, nu, grid_count=8192, eps=1e-5 * window)
    expected = moment(mu2, 1) * nu.alpha * nu.gamma
    m1_err = abs(moment(conv, 1) - expected) / expected

    # alternating-moment freeness probe shrinks with matrix size
    rng = np.random.default_rng(11)
    p32 = freeness_probe(32, 30, rng)
    p256 = freeness_probe(256, 30, rng)

    ok = (grad_err < 1e-5 and mass_err < 1e-6 and semicircle_l1 < 1e-2
          and m1_err < 1e-3 and p256.median_abs < p32.median_abs)
    report("9 property suites", ok,
           f"gradient FD {grad_err:.1e}, mass {mass_err:.1e}, semicircle L1 "
           f"{semicircle_l1:.1e}, m1 {m1_err:.1e}, freeness {p32.median_abs:.2e}"
           f"->{p256.median_abs:.2e}")
    assert ok
