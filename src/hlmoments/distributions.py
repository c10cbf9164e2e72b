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

``scipy.special`` supplies the special functions of the Weibull, lognormal,
gamma and generalized Gaussian families.  ``_special`` imports it on first
use, so only the family methods (sample, quantile, cdf, pdf, mean) and what
calls them (the congruence analyzer, the verify probes that draw from a
family) load scipy; importing the package or estimating from given data does
not.

Gamma and generalized Gaussian (so normal and Laplace) quantiles invert the
regularized incomplete gamma function P(a, x) with ``_gammaincinv``: a start
from a per-shape table, then one Halley step (after DiDonato & Morris, ACM
TOMS 12, 1986, and Gil, Segura & Temme, SIAM J. Sci. Comput. 34, 2012).  It
is 4-6x faster than scipy's ``gammaincinv`` at shapes 0.1 to 2/3 and about 2x
at 1 to 50.  Against a 100-bit oracle over seeded draws and both tails down
to 2^-52, its worst error is 3-210 ulp at shapes 0.1 to 50, never above
scipy's there (8-320 ulp); both grow where the inverse is ill-conditioned, at
small shapes.  scipy's inverse still serves a probability of 0 or 1, a tail
probability below 2^-60, and any value whose Halley correction is too large
to certify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ArgumentError, _instance, _integer, _real, _reals
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
_DEAD_BAND = 1e-12  # |dQA/dparam| below this is a zero sign, whatever the noise floor
_CONGRUENCE_DELTA = 1e-4  # the congruence scan's smallest eps


def _open_unit(rng: np.random.Generator, size) -> np.ndarray:
    # Uniform on (0, 1): 53-bit integers in [1, 2^53), never exactly 0 or 1.
    return rng.integers(1, 1 << 53, size=size) / float(1 << 53)


def _special():
    """``scipy.special``, imported on first use: only family methods need it."""
    import scipy.special

    return scipy.special


# _gammaincinv's constants: its table spans tail probabilities e^s for s in
# [_S_LOW, _S_HIGH] on _NODES uniform nodes; P(a, x) is a power series at
# x <= _SERIES_X, whose tail after _SERIES_TERMS terms is below 2^25/25! <
# 2^-58 there; a Halley step is kept when its predicted relative error is
# below _CERTIFY.
_S_LOW, _S_HIGH = math.log(2.0**-60), math.log(0.5)
_NODES = 2048
_SERIES_X = 2.0
_SERIES_TERMS = 24
_CERTIFY = 2.0**-60


@functools.lru_cache(maxsize=32)  # bounded: a congruence scan of a shape makes new shapes
def _quantile_table(a: float) -> tuple[np.ndarray, list[float]]:
    """Cubic Hermite coefficients of log x against s = log(tail), one column per interval,
    and the coefficients 1 / ((a+1)...(a+n)), n = 0.._SERIES_TERMS, of P's series.

    Columns ``0 .. _NODES-2`` are the lower half (P(a, x) = e^s), the next
    ``_NODES-1`` the upper half (Q(a, x) = e^s); the four rows hold c0..c3 of
    ``c0 + c1*tau + c2*tau^2 + c3*tau^3`` for tau in [0, 1].  Nodes
    come from scipy's inverses and slopes from the density:
    d log x / ds = +-e^s / (x pdf(x)).  A node scipy puts at x = 0 (tiny
    shapes) makes its intervals NaN, which the Halley guard sends back to scipy.
    """
    sp = _special()
    s = np.linspace(_S_LOW, _S_HIGH, _NODES)
    tail = np.exp(s)
    h = s[1] - s[0]
    halves = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for x, sign in ((sp.gammaincinv(a, tail), h), (sp.gammainccinv(a, tail), -h)):
            y = np.log(x)
            m = sign * tail / np.exp(a * y - x - sp.gammaln(a))  # h * d log x / ds
            dy = y[1:] - y[:-1]
            halves.append(np.stack(
                [y[:-1], m[:-1], 3.0 * dy - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * dy]))
    series = [1.0]
    for n in range(1, _SERIES_TERMS + 1):
        series.append(series[-1] / (a + n))
    return np.concatenate(halves, axis=1), series


def _gammaincinv(a: float, u) -> np.ndarray:
    """x >= 0 with P(a, x) = u for u in [0, 1], elementwise, shaped like u.

    The lower half (u <= 1/2) solves P = u from a start tabulated against
    log u; the upper half solves Q = 1 - u (exact there) from one against
    log(1 - u).  One Halley step follows.  Its residual is P from the
    all-positive series x^a e^-x / Gamma(a+1) * sum x^n / ((a+1)...(a+n)) at
    x <= 2, where scipy's ``gammainc`` is slowest, and scipy's ``gammainc`` or
    ``gammaincc`` above.  scipy's ``gammaincinv`` takes u = 0 or 1, tails
    below the table and any value the step cannot certify.
    """
    sp = _special()
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    coef, series = _quantile_table(a)
    intervals = _NODES - 1
    with np.errstate(all="ignore"):
        upper = flat > 0.5
        q = 1.0 - flat
        t = (np.log(np.where(upper, q, flat)) - _S_LOW) * (intervals / (_S_HIGH - _S_LOW))
        i = np.clip(t, 0, intervals - 1).astype(np.intp)
        tau = t - i
        column = i + intervals * upper
        c0, c1, c2, c3 = (row.take(column) for row in coef)  # faster than coef[:, column]
        log_x = c0 + tau * (c1 + tau * (c2 + tau * c3))
        x = np.exp(log_x)

        r = np.empty_like(x)  # P(a, x) - u at the start
        small = x <= _SERIES_X
        xs = x[small]
        acc = np.full_like(xs, series[-1])
        for c in series[-2::-1]:
            acc *= xs
            acc += c
        r[small] = xs**a * np.exp(-xs) / sp.gamma(a + 1.0) * acc - flat[small]
        lower_big, upper_big = ~small & ~upper, ~small & upper
        r[lower_big] = sp.gammainc(a, x[lower_big]) - flat[lower_big]
        r[upper_big] = q[upper_big] - sp.gammaincc(a, x[upper_big])

        a_log_x = a * log_x
        newton = r * x / np.exp(a_log_x - x - sp.gammaln(a))  # r / pdf(x)
        dx = newton / (1.0 - 0.5 * newton * ((a - 1.0) / x - 1.0))
        # From a start off by rho (about |dx| / x) relative, the step leaves
        # about K rho^3, K = (a - 1 - x)^2 / 12 + (a - 1) / 6 (k adds 1 to cap
        # rho where K is small), plus rho times the pdf's rounding error, which
        # grows with the terms of its exponent.
        rho = np.abs(dx) / x
        k = 1.0 + (a - 1.0 - x) ** 2 / 12.0 + abs(a - 1.0) / 6.0
        pdf_error = _EPS_MACH * (np.abs(a_log_x) + x + abs(sp.gammaln(a)))
        certified = (t >= 0) & (rho * (rho**2 * k + pdf_error) <= _CERTIFY)
        x -= dx
    if not certified.all():
        x[~certified] = sp.gammaincinv(a, flat[~certified])
    return x.reshape(u.shape)


class Family:
    """Base class: quantile/cdf/pdf/mean plus seeded sampling."""

    #: parameters that may take any finite value; every other one must be positive
    _ANY_SIGN: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self.param_names:
            low = -math.inf if name in self._ANY_SIGN else 0.0
            object.__setattr__(self, name, _real(name, getattr(self, name), low, open_low=True))

    def _q(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, p):
        """Quantile function Q(p) for p strictly inside (0, 1)."""
        arr = _reals("p", p)
        if (arr <= 0).any() or (arr >= 1).any():
            raise ArgumentError("quantile probabilities must lie strictly in (0, 1)")
        out = self._q(arr)
        return float(out) if arr.ndim == 0 else out

    def cdf(self, x):  # x may be +-inf: cdf(-inf) is 0, cdf(inf) is 1
        return self._at(self._cdf, x, 1.0)

    def pdf(self, x):  # x may be +-inf: pdf(+-inf) is 0
        return self._at(self._pdf, x, 0.0)

    @staticmethod
    def _at(f, x, at_inf: float):
        """The family's formula ``f`` at the finite entries of x, 0 at -inf, ``at_inf``
        at inf and NaN at NaN.  A term that overflows is inf, which the formulas take
        to their limit (a density or tail of 0), so its overflow is not a warning."""
        x = _reals("x", x, finite=False)
        with np.errstate(over="ignore"):
            out = f(np.where(np.isfinite(x), x, 0.0))
        out = np.select([x == np.inf, x == -np.inf, np.isnan(x)], [at_inf, 0.0, np.nan], out)
        return float(out) if x.ndim == 0 else out

    def mean(self) -> float:
        """Closed-form mean; ``inf`` signals an infinite first moment."""
        raise NotImplementedError

    def sample(self, n: int, seed) -> np.ndarray:
        """n i.i.d. draws by inverse transform; fixed by seed, an int >= 0 or a SeedSequence."""
        n = _integer("n", n, 1)
        if not isinstance(seed, np.random.SeedSequence):
            seed = _integer("seed", seed, 0)
        return self._q(_open_unit(np.random.default_rng(seed), n))

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

    def _q(self, p):
        return self.scale * (-np.log1p(-p)) ** (1.0 / self.shape)

    def _cdf(self, x):
        out = -np.expm1(-np.clip(x / self.scale, 0, None) ** self.shape)
        return np.where(x <= 0, 0.0, out)

    def _pdf(self, x):
        xp = np.where(x <= 0, self.scale, x)  # the scale stands in where the density is 0
        log_z = np.log(xp) - math.log(self.scale)
        out = np.exp((self.shape - 1.0) * log_z - np.exp(self.shape * log_z))
        return np.where(x <= 0, 0.0, (self.shape / self.scale) * out)

    def mean(self) -> float:
        return self.scale * _special().gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class Pareto(Family):
    """Pareto with tail index alpha and minimum xm: Q(p) = xm * (1-p)^(-1/alpha)."""

    shape: float
    xm: float = 1.0

    def _q(self, p):
        return self.xm * (1.0 - p) ** (-1.0 / self.shape)

    def _cdf(self, x):
        out = 1.0 - (self.xm / np.clip(x, self.xm, None)) ** self.shape
        return np.where(x < self.xm, 0.0, out)

    def _pdf(self, x):
        z = np.clip(x, self.xm, None)
        out = self.shape / z * (self.xm / z) ** self.shape  # xm / z <= 1 cannot overflow
        return np.where(x < self.xm, 0.0, out)

    def mean(self) -> float:
        if self.shape <= 1.0:
            return math.inf
        return self.shape * self.xm / (self.shape - 1.0)


@dataclass(frozen=True)
class LogNormal(Family):
    """Lognormal: Q(p) = exp(mu + sigma * Phi^(-1)(p))."""

    _ANY_SIGN = ("mu",)

    mu: float
    sigma: float

    def _q(self, p):
        return np.exp(self.mu + self.sigma * _special().ndtri(p))

    def _cdf(self, x):
        z = (np.log(np.where(x <= 0, 1.0, x)) - self.mu) / self.sigma  # 1 stands in for x <= 0
        out = _special().ndtr(z)
        return np.where(x <= 0, 0.0, out)

    def _pdf(self, x):
        xp = np.where(x <= 0, 1.0, x)
        z = (np.log(xp) - self.mu) / self.sigma
        sub = xp < np.finfo(float).tiny  # there e^(-z^2/2) may underflow and x * sigma lose
        out = np.exp(np.where(sub, -np.log(xp), 0.0) - 0.5 * z * z)  # bits: 1/x joins the exponent
        out /= np.where(sub, 1.0, xp) * self.sigma * math.sqrt(2.0 * math.pi)
        return np.where(x <= 0, 0.0, out)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)


@dataclass(frozen=True)
class Gamma(Family):
    """Gamma with shape and scale; quantile via the regularized inverse."""

    shape: float
    scale: float = 1.0

    def _q(self, p):
        return self.scale * _gammaincinv(self.shape, p)

    def _cdf(self, x):
        return _special().gammainc(self.shape, np.clip(x, 0, None) / self.scale)

    def _pdf(self, x):
        xp, log_scale = np.where(x <= 0, self.scale, x), math.log(self.scale)
        log_z = np.log(xp) - log_scale  # log(xp / scale) would take the log of 0 or inf
        logp = (self.shape - 1.0) * log_z - xp / self.scale - _special().gammaln(self.shape)
        return np.where(x <= 0, 0.0, np.exp(logp - log_scale))

    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class GeneralizedGaussian(Family):
    """Density proportional to exp(-(|x - mu| / sigma)^beta).

    beta = 2 is the normal family (sigma = sqrt(2) * SD) and beta = 1 is
    Laplace; see the :func:`normal` and :func:`laplace` helpers.
    """

    _ANY_SIGN = ("mu",)

    mu: float
    sigma: float
    beta: float = 2.0

    def _q(self, p):
        z = _gammaincinv(1.0 / self.beta, np.abs(2.0 * p - 1.0)) ** (1.0 / self.beta)
        return self.mu + self.sigma * np.where(p >= 0.5, z, -z)

    def _cdf(self, x):
        g = _special().gammainc(1.0 / self.beta, (np.abs(x - self.mu) / self.sigma) ** self.beta)
        return 0.5 + 0.5 * np.sign(x - self.mu) * g

    def _pdf(self, x):
        z = np.abs(x - self.mu) / self.sigma
        norm = self.beta / (2.0 * self.sigma * _special().gamma(1.0 / self.beta))
        return norm * np.exp(-(z**self.beta))

    def mean(self) -> float:
        return self.mu


@dataclass(frozen=True)
class Uniform(Family):
    """Uniform on (a, b)."""

    _ANY_SIGN = ("a", "b")

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.a < self.b:
            raise ArgumentError(f"need a < b, got a={self.a}, b={self.b}")

    def _q(self, p):
        return self.a + p * (self.b - self.a)

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _pdf(self, x):
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)


def normal(mu: float = 0.0, sd: float = 1.0) -> GeneralizedGaussian:
    """Normal(mu, sd) as a generalized Gaussian (beta = 2, sigma = sqrt(2)*sd)."""
    sd = _real("sd", sd, 0.0, open_low=True)
    return GeneralizedGaussian(mu=mu, sigma=math.sqrt(2.0) * sd, beta=2.0)


def laplace(mu: float = 0.0, b: float = 1.0) -> GeneralizedGaussian:
    """Laplace(mu, b) as a generalized Gaussian (beta = 1, sigma = b)."""
    return GeneralizedGaussian(mu=mu, sigma=_real("b", b, 0.0, open_low=True), beta=1.0)


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
    s = _instance("spec", spec, str).strip().lower()
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

def _qa_levels(eps, gamma) -> tuple[float, float]:
    """The probabilities gamma*eps and 1 - eps of QA(eps, gamma), both in (0, 1)."""
    eps = _real("eps", eps, 0.0, 1.0, open_low=True, open_high=True)
    gamma = _real("gamma", gamma, 0.0, open_low=True)
    lo = gamma * eps
    if not 0.0 < lo < 1.0:
        raise ArgumentError(f"need 0 < gamma*eps < 1, got eps={eps}, gamma={gamma}")
    return lo, 1.0 - eps


def _qa(family: Family, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """QA and the larger |Q| at each checked level pair (lo, hi), from one quantile call."""
    q = family._q(np.stack([lo, hi]))
    return 0.5 * (q[0] + q[1]), np.abs(q).max(axis=0)


def _qa_signs(family: Family, param: str, eps, gamma, h) -> np.ndarray:
    """The signs ``qa_partial_sign`` gives, at each eps of an ascending sequence."""
    family = _instance("family", family, Family)
    if param not in family.param_names:
        raise ArgumentError(f"{type(family).__name__} has no parameter {param!r}; "
                            f"expected one of {family.param_names}")
    for e in (eps[0], eps[-1]):  # the ends bound the levels of every eps between them
        _qa_levels(e, gamma)
    eps = np.asarray(eps, dtype=np.float64)
    lo, hi = float(gamma) * eps, 1.0 - eps
    theta = getattr(family, param)
    h = max(1e-6, 1e-4 * abs(theta)) if h is None else _real("h", h, 0.0, open_low=True)
    # both steps are taken before any quantile, so one leaving the domain raises first
    fp, fm = [replace(family, **{param: theta + step}) for step in (h, -h)]
    (qa_p, mag_p), (qa_m, mag_m) = (_qa(f, lo, hi) for f in (fp, fm))
    est = (qa_p - qa_m) / (2.0 * h)
    noise_floor = 8.0 * _EPS_MACH * np.maximum(mag_p, mag_m) / h
    return np.where(np.abs(est) < np.maximum(_DEAD_BAND, noise_floor), 0, np.where(est > 0, 1, -1))


def quantile_average(family: Family, eps: float, gamma: float) -> float:
    """QA(eps, gamma) = (Q(gamma*eps) + Q(1-eps)) / 2."""
    family = _instance("family", family, Family)
    return float(_qa(family, *_qa_levels(eps, gamma))[0])


def qa_partial_sign(family: Family, param: str, eps: float, gamma: float,
                    h: float | None = None) -> int:
    """Sign of dQA/dparam by central differences, with a noise dead band.

    Returns +1, -1, or 0.  Zero means the estimate is indistinguishable from
    zero: below ``_DEAD_BAND`` or below the rounding-noise floor of the
    difference quotient (a few ulps of the quantile magnitudes divided by
    the step), and is treated as compatible with either sign.
    """
    return int(_qa_signs(family, param, (eps,), gamma, h)[0])


def lognormal_qa_sigma_derivative(family: LogNormal, eps: float, gamma: float) -> float:
    """Closed-form dQA/dsigma for the lognormal family (cross-check).

    dQ(p)/dsigma = Phi^(-1)(p) * Q(p), so the derivative of the quantile
    average is the half-sum of the two weighted quantiles.
    """
    family = _instance("family", family, LogNormal)
    zlo, zhi = _special().ndtri(_qa_levels(eps, gamma))
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
    h: float | None = None,
) -> CongruenceVerdict:
    """Scan dQA/dparam signs over a geometric eps grid in [1e-4, 1/(1+gamma)].

    Verdicts: "congruent" when all nonzero signs agree (dead-band zeros are
    compatible with either sign), "non-congruent" when clean conflicting
    signs appear, "inconclusive" when signs conflict but some estimates sat
    in the dead band.
    """
    grid_size = _integer("grid_size", grid_size, 8)
    gamma = _real("gamma", gamma, 0.0, open_low=True)
    if 1.0 / (1.0 + gamma) == 1.0:
        raise ArgumentError(
            f"gamma={gamma} is too small: the eps grid's end 1/(1 + gamma) rounds to 1")
    grid = np.geomspace(_CONGRUENCE_DELTA, 1.0 / (1.0 + gamma), grid_size).tolist()
    signs = tuple(_qa_signs(family, param, grid, gamma, h).tolist())
    if len(set(signs) - {0}) < 2:
        verdict = "congruent"
    else:
        verdict = "inconclusive" if 0 in signs else "non-congruent"
    return CongruenceVerdict(
        family=family.label,
        param=param,
        gamma=gamma,
        epsilons=tuple(grid),
        signs=signs,
        verdict=verdict,
    )
