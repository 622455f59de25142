"""Mean-field scalars of wide orthogonal networks.

With orthogonal weights and a Gaussian-looking preactivation of variance
sigma^2 q_in, each layer is summarized by three scalars: the normalized
post-activation second moment q = E[phi(h)^2], the weight alpha of the
nonzero atom of the squared-derivative law, and the atom's value gamma.

Each of the three piecewise-linear activation families is one class that
holds everything about it: its name (`family`, the key of FAMILIES), its
parameters (the dataclass fields), phi (`apply`) and |phi'| (`deriv`) on
float arrays of any shape, and its closed-form branch of the Gaussian
moment map (`_moments`, read through moment_map). The module also builds
hard-tanh layers that sit exactly on a fixed point q* of that map with
prescribed depth-scaled deviations from isometry; choosing eps2 so that
sigma^2 gamma alpha = 1 puts the network on the critical line.
"""

import math
from dataclasses import dataclass
from typing import ClassVar, Union, get_args

import numpy as np

from .specmeasure import NumericalError


def _r0(u: float) -> float:
    """Gaussian tail mass P(|Z| > u)."""
    return math.erfc(u / math.sqrt(2.0))


def _r2(u: float) -> float:
    """1 - E[Z^2; |Z| < u] for a standard normal Z."""
    return u * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * u * u) + _r0(u)


@dataclass(frozen=True)
class HardTanh:
    """phi(x) = g x while s g |x| < 1, saturating at g sgn(x) outside."""

    family: ClassVar[str] = "hard_tanh"
    s: float
    g: float

    def __post_init__(self):
        if self.s <= 0 or self.g <= 0:
            raise ValueError("hard tanh needs s > 0 and g > 0")

    def apply(self, x):
        return np.where(self.s * self.g * np.abs(x) < 1.0, self.g * x, self.g * np.sign(x))

    def deriv(self, x):
        """|phi'|: g on the linear branch, 0 where saturated."""
        return np.where(self.s * self.g * np.abs(x) < 1.0, self.g, 0.0)

    def _moments(self, std: float, var: float):
        u = 1.0 / (self.s * self.g * std)
        alpha = math.erf(u / math.sqrt(2.0))
        gamma = self.g**2
        return gamma * (var * (1.0 - _r2(u)) + _r0(u)), alpha, gamma


@dataclass(frozen=True)
class ShiftedRelu:
    """phi(x) = a x for x > b, constant a b below the threshold."""

    family: ClassVar[str] = "shifted_relu"
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b < 0:
            raise ValueError("shifted relu needs a > 0 and b >= 0")

    def apply(self, x):
        return np.where(x > self.b, self.a * x, self.a * self.b)

    def deriv(self, x):
        """|phi'|: a above the threshold, 0 below."""
        return np.where(x > self.b, self.a, 0.0)

    def _moments(self, std: float, var: float):
        # Z > t on the linear branch; each tail of |Z| > t holds half of
        # P(|Z| > t) and half of E[Z^2; |Z| > t]
        t = self.b / std
        alpha = 0.5 * _r0(t)
        gamma = self.a**2
        return gamma * (var * 0.5 * _r2(t) + self.b**2 * (1.0 - alpha)), alpha, gamma


@dataclass(frozen=True)
class Linear:
    """phi(x) = g x."""

    family: ClassVar[str] = "linear"
    g: float

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("linear activation needs g > 0")

    def apply(self, x):
        return self.g * x

    def deriv(self, x):
        """|phi'| = g everywhere."""
        return np.full(np.shape(x), self.g)

    def _moments(self, std: float, var: float):
        gamma = self.g**2
        return gamma * var, 1.0, gamma


ActivationSpec = Union[HardTanh, ShiftedRelu, Linear]
# family name -> activation class
FAMILIES = {cls.family: cls for cls in get_args(ActivationSpec)}


@dataclass(frozen=True)
class MeanFieldParams:
    """The (q, alpha, gamma) triple of one layer plus its weight scale."""

    q: float
    alpha: float
    gamma: float
    sigma: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.q, self.gamma, self.sigma)):
            raise ValueError("q, gamma, sigma must be finite and positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


def moment_map(spec: ActivationSpec, sigma: float, q: float):
    """(q_next, alpha, gamma) of one layer at preactivation h ~ N(0, sigma^2 q).

    q_next = E[phi(h)^2] is the next layer's moment; gamma is the
    linear-branch slope squared and alpha the Gaussian probability of
    landing on that branch. Every family is piecewise linear, so each
    moment is an exact erf/pdf form in the standardized kink position.
    """
    if not (0.0 < q < math.inf and 0.0 < sigma < math.inf):
        raise ValueError("sigma and q must be finite and positive")
    q_next, alpha, gamma = spec._moments(sigma * math.sqrt(q), sigma**2 * q)
    if not math.isfinite(q_next):
        raise NumericalError("the moment map produced a non-finite moment")
    return q_next, alpha, gamma


@dataclass(frozen=True)
class TuneResult:
    """Tuned activation plus the mean-field scalars it induces.

    eps1 is the depth-scaled saturation L P(|Z| > u*) the tuning
    achieved, L(1 - alpha) at the tuning depth L; params.q is an exact
    fixed point of the moment map.
    """

    spec: ActivationSpec
    params: MeanFieldParams
    eps1: float


def layer_sigmas(sigma, depth: int) -> tuple:
    """A depth-`depth` network's sigma_1 .. sigma_L from one value or one
    per layer, each finite and positive."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    sig = tuple(float(s) for s in sigma) if np.iterable(sigma) else (float(sigma),) * depth
    if len(sig) != depth:
        raise ValueError(f"need {depth} sigma values, got {len(sig)}")
    if not all(0.0 < s < math.inf for s in sig):
        raise ValueError("sigma entries must be finite and positive")
    return sig


def mean_field_schedule(spec: ActivationSpec, sigma, depth: int, q0: float = 1.0):
    """LayerSchedule induced by one activation at input moment q0, with
    `sigma` one value or one per layer (see layer_sigmas).

    Layer l's preactivation variance is sigma_l^2 q_{l-1}, so its
    derivative statistics and the next moment both come from the
    previous q. The result feeds the spectrum recursion directly.
    """
    from .freeconv import LayerSchedule, TwoAtomJacobianLaw

    sig = layer_sigmas(sigma, depth)
    qs = [float(q0)]
    jacobians = []
    for ell in range(1, depth):
        q_next, alpha, gamma = moment_map(spec, sig[ell - 1], qs[-1])
        jacobians.append(TwoAtomJacobianLaw(alpha, gamma))
        qs.append(q_next)
    return LayerSchedule(q=tuple(qs), sigma=sig, jacobians=tuple(jacobians))


def tune_constant_q(depth: int, eps1: float, eps2: float = 0.0, q_star: float = 1.0) -> TuneResult:
    """Hard-tanh layer whose mean-field scalars are exactly constant in
    depth with prescribed isometry deviations and fixed point q_star.

    eps1 = depth * P(|Z| > u*) sets u*, the saturation point of the
    normalized preactivation. The per-layer decay pins
    sigma^2 g^2 = exp(-eps2 / depth); holding q_star fixed then forces
    g^2 = q_star (1 - sigma^2 g^2 E[Z^2; |Z| < u*]) / P(|Z| > u*), which
    determines sigma and finally s. Inputs normalized to q_hat_0 = q_star
    sit exactly on the fixed point, so every layer of a simulated network
    shares one (q, alpha, gamma). The critical line
    sigma^2 gamma alpha = 1 is eps2 = depth log(1 - eps1/depth); there
    the denominator below is r2(u*) - r0(u*) over alpha, always positive.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if q_star <= 0:
        raise ValueError("q_star must be positive")
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
    return TuneResult(spec, params, depth * r0)
