"""Parametric families and the quantile-average congruence analyzer.

Each family exposes quantile, cdf, pdf, closed-form mean, and seeded
inverse-transform sampling.  The congruence analyzer classifies how the
quantile average

    QA(eps, gamma) = (Q(gamma * eps) + Q(1 - eps)) / 2

moves as a family parameter moves: a family parameter is "congruent" when
the sign of dQA/dtheta is the same at every eps in (0, 1/(1+gamma)], so all
quantile-average-based location estimates shift in one direction as the
parameter shifts.  Symmetric families and location parameters trivially
qualify; shape-scale families can fail (the Weibull shape is the canonical
counterexample: its mean and median move in opposite directions as the
shape drops below 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import gamma as _gamma_fn
from scipy.special import gammainc, gammaincinv, gammaln, ndtr, ndtri

from .errors import ArgumentError
from .records import Record

__all__ = [
    "Family",
    "Weibull",
    "Pareto",
    "LogNormal",
    "Gamma",
    "GeneralizedGaussian",
    "Uniform",
    "normal",
    "laplace",
    "parse_family",
    "quantile_average",
    "qa_partial_sign",
    "lognormal_qa_sigma_derivative",
    "congruence_check",
    "CongruenceVerdict",
]

_EPS_MACH = np.finfo(np.float64).eps


def _open_unit(rng: np.random.Generator, size) -> np.ndarray:
    # Uniform on (0, 1): 53-bit integers in [1, 2^53), never exactly 0 or 1.
    return rng.integers(1, 1 << 53, size=size) / float(1 << 53)


def _finite_pos(name: str, v) -> float:
    v = float(v)
    if not (math.isfinite(v) and v > 0):
        raise ArgumentError(f"{name} must be a positive finite real, got {v!r}")
    return v


def _finite(name: str, v) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise ArgumentError(f"{name} must be a finite real, got {v!r}")
    return v


class Family:
    """Base class: quantile/cdf/pdf/mean plus seeded sampling."""

    def _q(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, p):
        """Quantile function Q(p) for p strictly inside (0, 1)."""
        arr = np.asarray(p, dtype=np.float64)
        if arr.size and (not np.isfinite(arr).all() or (arr <= 0).any() or (arr >= 1).any()):
            raise ArgumentError("quantile probabilities must lie strictly in (0, 1)")
        out = self._q(arr)
        return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def mean(self) -> float:
        """Closed-form mean; ``inf`` signals an infinite first moment."""
        raise NotImplementedError

    def sample(self, n: int, seed) -> np.ndarray:
        """n i.i.d. draws by inverse transform; deterministic per seed."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ArgumentError(f"n must be a positive integer, got {n!r}")
        rng = np.random.default_rng(seed)
        return self._q(_open_unit(rng, int(n)))

    @property
    def param_names(self) -> tuple[str, ...]:
        """The family's parameters: the fields of its dataclass."""
        return tuple(f.name for f in fields(self))

    @property
    def label(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name):g}" for name in self.param_names)
        return f"{type(self).__name__.lower()}({args})"


@dataclass(frozen=True)
class Weibull(Family):
    """Weibull with shape alpha and scale lam: Q(p) = lam * (-ln(1-p))^(1/alpha)."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        _finite_pos("shape", self.shape)
        _finite_pos("scale", self.scale)

    def _q(self, p):
        return self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = -np.expm1(-np.clip(x / self.scale, 0, None) ** self.shape)
        return np.where(x <= 0, 0.0, out)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        z = np.clip(x / self.scale, 0, None)
        out = (self.shape / self.scale) * z ** (self.shape - 1) * np.exp(-(z**self.shape))
        return np.where(x <= 0, 0.0, out)

    def mean(self) -> float:
        return self.scale * _gamma_fn(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class Pareto(Family):
    """Pareto with tail index alpha and minimum xm: Q(p) = xm * (1-p)^(-1/alpha)."""

    shape: float
    xm: float = 1.0

    def __post_init__(self):
        _finite_pos("shape", self.shape)
        _finite_pos("xm", self.xm)

    def _q(self, p):
        return self.xm * (1.0 - p) ** (-1.0 / self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = 1.0 - (self.xm / np.clip(x, self.xm, None)) ** self.shape
        return np.where(x < self.xm, 0.0, out)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = self.shape * self.xm**self.shape / np.clip(x, self.xm, None) ** (self.shape + 1)
        return np.where(x < self.xm, 0.0, out)

    def mean(self) -> float:
        if self.shape <= 1.0:
            return math.inf
        return self.shape * self.xm / (self.shape - 1.0)


@dataclass(frozen=True)
class LogNormal(Family):
    """Lognormal: Q(p) = exp(mu + sigma * Phi^(-1)(p))."""

    mu: float
    sigma: float

    def __post_init__(self):
        _finite("mu", self.mu)
        _finite_pos("sigma", self.sigma)

    def _q(self, p):
        return np.exp(self.mu + self.sigma * ndtri(p))

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = ndtr((np.log(np.clip(x, np.finfo(float).tiny, None)) - self.mu) / self.sigma)
        return np.where(x <= 0, 0.0, out)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        xc = np.clip(x, np.finfo(float).tiny, None)
        z = (np.log(xc) - self.mu) / self.sigma
        out = np.exp(-0.5 * z * z) / (xc * self.sigma * math.sqrt(2.0 * math.pi))
        return np.where(x <= 0, 0.0, out)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)


@dataclass(frozen=True)
class Gamma(Family):
    """Gamma with shape and scale; quantile via the regularized inverse."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        _finite_pos("shape", self.shape)
        _finite_pos("scale", self.scale)

    def _q(self, p):
        return self.scale * gammaincinv(self.shape, p)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return gammainc(self.shape, np.clip(x, 0, None) / self.scale)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        xc = np.clip(x, np.finfo(float).tiny, None)
        logp = (
            (self.shape - 1.0) * np.log(xc / self.scale)
            - xc / self.scale
            - gammaln(self.shape)
        ) - np.log(self.scale)
        return np.where(x <= 0, 0.0, np.exp(logp))

    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class GeneralizedGaussian(Family):
    """Density proportional to exp(-(|x - mu| / sigma)^beta).

    beta = 2 is the normal family (sigma = sqrt(2) * SD) and beta = 1 is
    Laplace; see the :func:`normal` and :func:`laplace` helpers.
    """

    mu: float
    sigma: float
    beta: float = 2.0

    def __post_init__(self):
        _finite("mu", self.mu)
        _finite_pos("sigma", self.sigma)
        _finite_pos("beta", self.beta)

    def _q(self, p):
        z = gammaincinv(1.0 / self.beta, np.abs(2.0 * p - 1.0)) ** (1.0 / self.beta)
        return self.mu + self.sigma * np.where(p >= 0.5, z, -z)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        g = gammainc(1.0 / self.beta, (np.abs(x - self.mu) / self.sigma) ** self.beta)
        return 0.5 + 0.5 * np.sign(x - self.mu) * g

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        z = np.abs(x - self.mu) / self.sigma
        norm = self.beta / (2.0 * self.sigma * _gamma_fn(1.0 / self.beta))
        return norm * np.exp(-(z**self.beta))

    def mean(self) -> float:
        return self.mu


@dataclass(frozen=True)
class Uniform(Family):
    """Uniform on (a, b)."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        _finite("a", self.a)
        _finite("b", self.b)
        if not self.a < self.b:
            raise ArgumentError(f"need a < b, got a={self.a}, b={self.b}")

    def _q(self, p):
        return self.a + p * (self.b - self.a)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)


def normal(mu: float = 0.0, sd: float = 1.0) -> GeneralizedGaussian:
    """Normal(mu, sd) as a generalized Gaussian (beta = 2, sigma = sqrt(2)*sd)."""
    return GeneralizedGaussian(mu=mu, sigma=math.sqrt(2.0) * float(sd), beta=2.0)


def laplace(mu: float = 0.0, b: float = 1.0) -> GeneralizedGaussian:
    """Laplace(mu, b) as a generalized Gaussian (beta = 1, sigma = b)."""
    return GeneralizedGaussian(mu=mu, sigma=float(b), beta=1.0)


_FAMILY_BUILDERS = {
    "weibull": Weibull,
    "pareto": Pareto,
    "lognormal": LogNormal,
    "gamma": Gamma,
    "gengauss": GeneralizedGaussian,
    "uniform": Uniform,
    "normal": normal,
    "laplace": laplace,
}


def parse_family(spec: str) -> Family:
    """Parse a family spec string like ``"weibull(1,1)"`` or ``"normal(0,1)"``."""
    s = spec.strip().lower()
    name, sep, rest = s.partition("(")
    name = name.strip()
    if name not in _FAMILY_BUILDERS:
        raise ArgumentError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILY_BUILDERS)}"
        )
    args: list[float] = []
    if sep:
        if not rest.endswith(")"):
            raise ArgumentError(f"malformed family spec {spec!r}")
        body = rest[:-1].strip()
        if body:
            try:
                args = [float(tok) for tok in body.split(",")]
            except ValueError as exc:
                raise ArgumentError(f"malformed family spec {spec!r}") from exc
    try:
        return _FAMILY_BUILDERS[name](*args)
    except TypeError as exc:
        raise ArgumentError(f"wrong number of parameters in {spec!r}") from exc


# ---------------------------------------------------------------------------
# quantile averages and congruence
# ---------------------------------------------------------------------------

def quantile_average(family: Family, eps: float, gamma: float) -> float:
    """QA(eps, gamma) = (Q(gamma*eps) + Q(1-eps)) / 2."""
    eps = float(eps)
    gamma = float(gamma)
    if not (math.isfinite(eps) and math.isfinite(gamma)):
        raise ArgumentError("eps and gamma must be finite")
    lo = gamma * eps
    if not 0.0 < lo < 1.0 or not 0.0 < eps < 1.0:
        raise ArgumentError(
            f"need 0 < gamma*eps < 1 and 0 < eps < 1, got eps={eps}, gamma={gamma}"
        )
    return 0.5 * (family.quantile(lo) + family.quantile(1.0 - eps))


def qa_partial_sign(
    family: Family,
    param: str,
    eps: float,
    gamma: float,
    h: float | None = None,
    dead_band: float = 1e-12,
) -> int:
    """Sign of dQA/dparam by central differences, with a noise dead band.

    Returns +1, -1, or 0.  Zero means the estimate is indistinguishable from
    zero: below ``dead_band`` or below the rounding-noise floor of the
    difference quotient (a few ulps of the quantile magnitudes divided by
    the step), and is treated as compatible with either sign.
    """
    if param not in family.param_names:
        raise ArgumentError(
            f"{type(family).__name__} has no parameter {param!r}; "
            f"expected one of {family.param_names}"
        )
    theta = float(getattr(family, param))
    if h is None:
        h = max(1e-6, 1e-4 * abs(theta))
    fp = replace(family, **{param: theta + h})
    fm = replace(family, **{param: theta - h})
    est = (quantile_average(fp, eps, gamma) - quantile_average(fm, eps, gamma)) / (2.0 * h)
    qmag = max(
        abs(fp.quantile(gamma * eps)),
        abs(fp.quantile(1.0 - eps)),
        abs(fm.quantile(gamma * eps)),
        abs(fm.quantile(1.0 - eps)),
    )
    noise_floor = 8.0 * _EPS_MACH * qmag / h
    if abs(est) < max(dead_band, noise_floor):
        return 0
    return 1 if est > 0 else -1


def lognormal_qa_sigma_derivative(family: LogNormal, eps: float, gamma: float) -> float:
    """Closed-form dQA/dsigma for the lognormal family (cross-check).

    dQ(p)/dsigma = Phi^(-1)(p) * Q(p), so the derivative of the quantile
    average is the half-sum of the two weighted quantiles.
    """
    if not isinstance(family, LogNormal):
        raise ArgumentError("analytic derivative is for the lognormal family")
    lo = gamma * eps
    if not 0.0 < lo < 1.0 or not 0.0 < eps < 1.0:
        raise ArgumentError("probability arguments out of range")
    zlo = ndtri(lo)
    zhi = ndtri(1.0 - eps)
    return 0.5 * (
        zlo * math.exp(family.mu + family.sigma * zlo)
        + zhi * math.exp(family.mu + family.sigma * zhi)
    )


@dataclass(frozen=True)
class CongruenceVerdict(Record):
    """Outcome of a sign scan of dQA/dparam over an eps grid."""

    RECORD = "congruence-verdict"

    family: str
    param: str
    gamma: float
    epsilons: tuple[float, ...]
    signs: tuple[int, ...]
    verdict: str


def congruence_check(
    family: Family,
    param: str,
    gamma: float = 1.0,
    grid_size: int = 64,
    delta: float = 1e-4,
    h: float | None = None,
) -> CongruenceVerdict:
    """Scan dQA/dparam signs over a geometric eps grid in (delta, 1/(1+gamma)].

    Verdicts: "congruent" when all nonzero signs agree (dead-band zeros are
    compatible with either sign), "non-congruent" when clean conflicting
    signs appear, "inconclusive" when signs conflict but some estimates sat
    in the dead band.
    """
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 8:
        raise ArgumentError(f"grid_size must be an integer >= 8, got {grid_size!r}")
    gamma = float(gamma)
    if not (math.isfinite(gamma) and gamma > 0):
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    hi = 1.0 / (1.0 + gamma)
    if not 0 < delta < hi:
        raise ArgumentError(f"delta must lie in (0, {hi}), got {delta}")
    grid = np.geomspace(delta, hi, int(grid_size))
    signs = tuple(qa_partial_sign(family, param, float(e), gamma, h=h) for e in grid)
    nonzero = [s for s in signs if s != 0]
    if not nonzero or all(s == nonzero[0] for s in nonzero):
        verdict = "congruent"
    elif any(s == 0 for s in signs):
        verdict = "inconclusive"
    else:
        verdict = "non-congruent"
    return CongruenceVerdict(
        family=family.label,
        param=param,
        gamma=gamma,
        epsilons=tuple(float(e) for e in grid),
        signs=signs,
        verdict=verdict,
    )
