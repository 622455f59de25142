"""Mean-field scalars of wide orthogonal networks.

With orthogonal weights and a Gaussian-looking preactivation of variance
sigma^2 q_in, each layer is summarized by three scalars: the normalized
post-activation second moment q = E[phi(h)^2], the weight alpha of the
nonzero atom of the squared-derivative law, and the atom's value gamma.
This module evaluates the moment map for the three piecewise-linear
activation families in closed form, and builds hard-tanh layers that sit
exactly on a fixed point q* of that map with prescribed depth-scaled
deviations from isometry; choosing eps2 so that sigma^2 gamma alpha = 1
puts the network on the critical line.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .specmeasure import NumericalError


@dataclass(frozen=True)
class HardTanh:
    """phi(x) = g x while s g |x| < 1, saturating at g sgn(x) outside."""

    s: float
    g: float

    def __post_init__(self):
        if self.s <= 0 or self.g <= 0:
            raise ValueError("hard tanh needs s > 0 and g > 0")


@dataclass(frozen=True)
class ShiftedRelu:
    """phi(x) = a x for x > b, constant a b below the threshold."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b < 0:
            raise ValueError("shifted relu needs a > 0 and b >= 0")


@dataclass(frozen=True)
class Linear:
    """phi(x) = g x."""

    g: float

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("linear activation needs g > 0")


ActivationSpec = Union[HardTanh, ShiftedRelu, Linear]


@dataclass(frozen=True)
class MeanFieldParams:
    """The (q, alpha, gamma) triple of one layer plus its weight scale."""

    q: float
    alpha: float
    gamma: float
    sigma: float

    def __post_init__(self):
        if self.q <= 0 or self.gamma <= 0 or self.sigma <= 0:
            raise ValueError("q, gamma, sigma must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    def to_json_dict(self) -> dict:
        return {"q": self.q, "alpha": self.alpha, "gamma": self.gamma, "sigma": self.sigma}


def activation_apply(spec: ActivationSpec, x):
    """Evaluate phi pointwise; x may be a scalar or an array."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, HardTanh):
        out = np.where(spec.s * spec.g * np.abs(x) < 1.0, spec.g * x, spec.g * np.sign(x))
    elif isinstance(spec, ShiftedRelu):
        out = np.where(x > spec.b, spec.a * x, spec.a * spec.b)
    elif isinstance(spec, Linear):
        out = spec.g * x
    else:
        raise TypeError(f"unknown activation {spec!r}")
    return out if out.ndim else float(out)


def activation_deriv(spec: ActivationSpec, x):
    """|phi'| pointwise: the slope g or a on the linear branch, 0 on the
    saturated one."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, HardTanh):
        out = np.where(spec.s * spec.g * np.abs(x) < 1.0, spec.g, 0.0)
    elif isinstance(spec, ShiftedRelu):
        out = np.where(x > spec.b, spec.a, 0.0)
    elif isinstance(spec, Linear):
        out = np.full_like(x, spec.g)
    else:
        raise TypeError(f"unknown activation {spec!r}")
    return out if out.ndim else float(out)


def _r0(u: float) -> float:
    """Gaussian tail mass P(|Z| > u)."""
    return math.erfc(u / math.sqrt(2.0))


def _r2(u: float) -> float:
    """1 - E[Z^2; |Z| < u] for a standard normal Z."""
    return u * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * u * u) + _r0(u)


def moment_map(spec: ActivationSpec, sigma: float, q: float):
    """(q_next, alpha, gamma) of one layer at preactivation h ~ N(0, sigma^2 q).

    q_next = E[phi(h)^2] is the next layer's moment; gamma is the
    linear-branch slope squared and alpha the Gaussian probability of
    landing on that branch. Every family is piecewise linear, so each
    moment is an exact erf/pdf form in the standardized kink position.
    """
    if q <= 0 or sigma <= 0:
        raise ValueError("sigma and q must be positive")
    std = sigma * math.sqrt(q)
    var = sigma**2 * q
    if isinstance(spec, HardTanh):
        u = 1.0 / (spec.s * spec.g * std)
        alpha = math.erf(u / math.sqrt(2.0))
        gamma = spec.g**2
        q_next = gamma * (var * (1.0 - _r2(u)) + _r0(u))
    elif isinstance(spec, ShiftedRelu):
        # Z > t on the linear branch; each tail of |Z| > t holds half of
        # P(|Z| > t) and half of E[Z^2; |Z| > t]
        t = spec.b / std
        alpha = 0.5 * _r0(t)
        gamma = spec.a**2
        q_next = gamma * (var * 0.5 * _r2(t) + spec.b**2 * (1.0 - alpha))
    elif isinstance(spec, Linear):
        alpha, gamma = 1.0, spec.g**2
        q_next = gamma * var
    else:
        raise TypeError(f"unknown activation {spec!r}")
    if not math.isfinite(q_next):
        raise NumericalError("the moment map produced a non-finite moment")
    return q_next, alpha, gamma


@dataclass(frozen=True)
class TuneResult:
    """Tuned activation plus the mean-field scalars it induces.

    eps1/eps2 are the depth-scaled isometry deviations L(1 - alpha) and
    -L log(sigma^2 gamma) evaluated at ref_depth; params.q is an exact
    fixed point of the moment map.
    """

    spec: ActivationSpec
    params: MeanFieldParams
    eps1: float
    eps2: float
    ref_depth: int


def mean_field_schedule(spec: ActivationSpec, sigma, depth: int, q0: float = 1.0):
    """LayerSchedule induced by one activation at input moment q0.

    Layer l's preactivation variance is sigma_l^2 q_{l-1}, so its
    derivative statistics and the next moment both come from the
    previous q. The result feeds the spectrum recursion directly.
    """
    from .freeconv import LayerSchedule, TwoAtomJacobianLaw

    if depth < 1:
        raise ValueError("depth must be at least 1")
    sig = tuple(float(s) for s in sigma) if np.iterable(sigma) else (float(sigma),) * depth
    if len(sig) != depth:
        raise ValueError(f"need {depth} sigma values, got {len(sig)}")
    qs = [float(q0)]
    jacobians = []
    for ell in range(1, depth):
        q_next, alpha, gamma = moment_map(spec, sig[ell - 1], qs[-1])
        jacobians.append(TwoAtomJacobianLaw(alpha, gamma))
        qs.append(q_next)
    return LayerSchedule(q=tuple(qs), sigma=sig, jacobians=tuple(jacobians))


def tune_constant_q(
    depth: int,
    eps1: float | None = None,
    u_star: float | None = None,
    eps2: float = 0.0,
    q_star: float = 1.0,
) -> TuneResult:
    """Hard-tanh layer whose mean-field scalars are exactly constant in
    depth with prescribed isometry deviations and fixed point q_star.

    u* is the saturation point of the normalized preactivation (provide
    it directly, or via eps1 = depth * P(|Z| > u*)). The per-layer decay
    pins sigma^2 g^2 = exp(-eps2 / depth); holding q_star fixed then
    forces g^2 = q_star (1 - sigma^2 g^2 E[Z^2; |Z| < u*]) / P(|Z| > u*),
    which determines sigma and finally s. Inputs normalized to
    q_hat_0 = q_star sit exactly on the fixed point, so every layer of a
    simulated network shares one (q, alpha, gamma). The critical line
    sigma^2 gamma alpha = 1 is eps2 = depth log(1 - eps1/depth); there
    the denominator below is r2(u*) - r0(u*) over alpha, always positive.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if q_star <= 0:
        raise ValueError("q_star must be positive")
    if (eps1 is None) == (u_star is None):
        raise ValueError("provide exactly one of eps1 or u_star")
    if eps1 is not None:
        if not 0.0 < eps1 < depth:
            raise ValueError("eps1 must be in (0, depth)")
        target = eps1 / depth
        lo, hi = 0.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _r0(mid) > target:
                lo = mid
            else:
                hi = mid
        u_star = 0.5 * (lo + hi)
    if u_star <= 0:
        raise ValueError("u_star must be positive")

    c0 = math.exp(-eps2 / depth)
    r0, r2 = _r0(u_star), _r2(u_star)
    denom = 1.0 - c0 * (1.0 - r2)
    if denom <= 0:
        raise ValueError("eps2 too negative: the moment map has no fixed point")
    g = math.sqrt(q_star * denom / r0)
    sigma = math.sqrt(c0) / g
    s = 1.0 / (g * sigma * u_star * math.sqrt(q_star))
    spec = HardTanh(s=s, g=g)
    alpha = 1.0 - r0
    params = MeanFieldParams(q=q_star, alpha=alpha, gamma=g**2, sigma=sigma)
    return TuneResult(spec, params, depth * r0, eps2, depth)
