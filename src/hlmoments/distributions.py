"""Parametric families and the quantile-average congruence analyzer.

Each family exposes quantile, cdf, pdf, closed-form mean, and seeded
sampling.  The congruence analyzer classifies how the
quantile average

    QA(eps, gamma) = (Q(gamma * eps) + Q(1 - eps)) / 2

moves as a family parameter moves: a family parameter is "congruent" when
the sign of dQA/dtheta is the same at every eps in (0, 1/(1+gamma)], so all
quantile-average-based location estimates shift in one direction as the
parameter shifts.  Symmetric families and location parameters trivially
qualify; shape-scale families can fail (the Weibull shape is the canonical
counterexample: its mean and median move in opposite directions as the
shape drops below 1).

Every family method but the lognormal quantile runs on numpy alone (the lognormal
cdf is Phi(z) = Q(1/2, z^2/2) / 2 below the median).  ``_pq`` gives the regularized
incomplete gamma ratios P(a, x) and Q(a, x) = 1 - P: P's all-positive series
below x = a + 1, Legendre's continued fraction for Q above it, and their
prefactor x^a e^-x / Gamma(a) (after DiDonato & Morris, ACM TOMS 12, 1986,
and Gil, Segura & Temme, SIAM J. Sci. Comput. 34, 2012).  The quantiles invert
P with ``_gammaincinv``: Newton's method on log x (``_solve_log_x``), then one
Halley step with ``_pq``'s residual; at shapes 0.1 to 50 its worst error against
a 100-bit oracle is 2-56 ulp, below scipy's 14-319.  Draws are by inverse transform,
but the gamma family's (gamma, normal, Laplace, generalized Gaussian) are numpy's.

``scipy.special`` is imported on first use (``_special``) by the lognormal
quantile (so lognormal draws, quantiles and scans) and ``_pq`` above shape 1e4 only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ArgumentError, _instance, _integer, _real, _reals
from .kernels import _TILE
from .lstat import _midpoint
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
_TINY = np.finfo(np.float64).tiny
_DEAD_BAND = 1e-12  # |dQA/dparam| below this is a zero sign, whatever the noise floor
_CONGRUENCE_DELTA = 1e-4  # the congruence scan's smallest eps


def _open_unit(rng: np.random.Generator, size) -> np.ndarray:
    # Uniform on (0, 1): 53-bit integers in [1, 2^53), never exactly 0 or 1.
    return rng.integers(1, 1 << 53, size=size) / float(1 << 53)


def _special():
    """``scipy.special``, imported on first use by the lognormal quantile and ``_pq`` above _A_MAX."""
    import scipy.special

    return scipy.special


# _pq's constants: from _STIRLING_A on, its prefactor takes Gamma(a) from the Stirling
# series through a^-7, whose first omitted term, 1/(1188 a^9), is below 2^-54 there;
# above _A_MAX (where P's series needs some 900 terms at x = a + 1) scipy serves P
# and Q.
_STIRLING_A = 30.0
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)
_A_MAX = 1e4

# _solve_log_x's starts need log Gamma(a + 1), a double up to a = 2.56e305.
_SHAPE_MAX = 2.5e305


def _or_inf(f, v: float) -> float:
    """f(v) for ``math.gamma`` or ``math.exp``, inf where it overflows a double."""
    try:
        return f(v)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=32)  # bounded: a congruence scan of a shape makes new shapes
def _series(a: float) -> tuple[float, tuple[float, ...]]:
    """A power of two w <= a + 1 and the coefficients w^n / (a (a+1)...(a+n)),
    n = 0, 1, ..., of P's series over the prefactor in z = x / w, through the
    first n whose term's tail bound at x = a + 1, t_n (a + 1) / n, is below
    2^-56 of the sum (which is at least 1; the terms fall faster at any smaller
    x).  The scale keeps the coefficients of large shapes from underflowing,
    and z is exact."""
    w = 2.0 ** math.floor(math.log2(a + 1.0))
    coef, term, n = [1.0 / a], 1.0, 0
    while term * (a + 1.0) >= n * 2.0**-56:
        n += 1
        coef.append(coef[-1] * w / (a + n))
        term *= (a + 1.0) / (a + n)
    return w, tuple(coef)


def _prefactor(a: float, x: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a), which is x times the gamma density."""
    if a < _STIRLING_A:
        # The power is exact to an ulp, where exp(a log x - x) would carry the
        # rounding of a large a log x.  Where x or e^-x is not a normal double the
        # exponent form keeps the value, and log x stands in for an x that underflowed.
        c = a / math.gamma(a + 1.0)
        pre = x**a * np.exp(-x) * c
        odd = (x < _TINY) | (x > 700.0)
        if odd.any():
            pre[odd] = np.exp(a * log_x[odd] - x[odd]) * c
        return pre
    # exp(-a phi(x / a)) a^a e^-a / Gamma(a), phi(t) = t - 1 - log t: near t = 1 log1p
    # keeps phi's bits, where the terms of a log x - x - log Gamma(a) cancel
    d = (x - a) / a
    log_t = np.where(d < -0.5, np.log(x / a), np.log1p(np.maximum(d, -0.5)))
    # from a = 2^53 on, mu < 2^-55 and e^-mu rounds to 1; there a^7 may overflow
    mu = sum(c / a ** (2 * i + 1) for i, c in enumerate(_STIRLING)) if a < 2.0**53 else 0.0
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(-mu) * np.exp(a * (log_t - d))


def _pq(a: float, x, log_x=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(a, x), Q(a, x) = 1 - P(a, x) and x^a e^-x / Gamma(a), elementwise for x >= 0.

    Below x = a + 1, P is the all-positive series x^a e^-x / Gamma(a+1) *
    sum x^n / ((a+1)...(a+n)) by Horner's rule, and Q = 1 - P.  Above it Q is
    x^a e^-x / Gamma(a) over Legendre's continued fraction
    x+1-a - 1(1-a) / (x+3-a - 2(2-a) / (x+5-a - ...)), evaluated bottom up
    from a depth at which it has converged at x = a + 1, and
    P = 1 - Q.  So the smaller of P and Q keeps its relative accuracy (after
    DiDonato & Morris, ACM TOMS 12, 1986, and Gil, Segura & Temme, SIAM J. Sci.
    Comput. 34, 2012).  The third value, x times the density, is both
    expansions' prefactor; ``log_x``, when the caller has it, saves a log.
    NaN stays NaN; above _A_MAX scipy gives P and Q.
    """
    x = np.asarray(x, dtype=np.float64)
    shape, x = x.shape, x.ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_x = np.log(x) if log_x is None else np.ravel(log_x)
        pre = _prefactor(a, x, log_x)
        if a > _A_MAX:
            sp = _special()
            p, q = sp.gammainc(a, x), sp.gammaincc(a, x)
        else:
            series = x < a + 1.0
            w, coef = _series(a)
            z = x / w  # the sum runs on every lane: cheaper than gathering the series lanes
            e = np.full_like(z, coef[-1])
            for c in coef[-2::-1]:
                e *= z
                e += c
            cf = ~series & (x < np.inf)
            if cf.any():
                e[cf] = 1.0 / _fraction(a, x[cf], _fraction_depth(a))
            e *= pre  # P on the series lanes, Q on the fraction's
            rest = 1.0 - e
            p, q = np.where(series, e, rest), np.where(series, rest, e)
        at_inf = x == np.inf
        if at_inf.any():
            p[at_inf], q[at_inf], pre[at_inf] = 1.0, 0.0, 0.0
    return p.reshape(shape), q.reshape(shape), pre.reshape(shape)


def _fraction(a: float, x, depth: int):
    """The denominator t_0 of Legendre's continued fraction Gamma(a, x) e^x x^-a =
    1 / t_0, t_n = x + 1 - a + 2n + (n+1)(a-n-1) / t_{n+1}, from t_depth = x + 1 - a +
    2 depth up; x is a float or an array."""
    t = x + (1.0 - a + 2.0 * depth)
    for n in range(depth, 0, -1):
        t = n * (a - n) / t + x + (1.0 - a + 2.0 * (n - 1))
    return t


@functools.lru_cache(maxsize=32)
def _fraction_depth(a: float) -> int:
    """A depth from which ``_fraction`` has converged at x = a + 1, and so at any
    larger x: the first on a ladder of depths whose value is within 2 ulp of the
    next one's."""
    x = a + 1.0
    depth, value = 4, _fraction(a, x, 4)
    while True:
        deeper = depth + depth // 4 + 1
        deeper_value = _fraction(a, x, deeper)
        if abs(deeper_value - value) <= 2.0 * _EPS_MACH * deeper_value:
            return deeper
        depth, value = deeper, deeper_value


def _wilson_hilferty(a: float, s: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Wilson-Hilferty's a (1 - 1/(9a) -+ z/(3 sqrt a))^3, z by A&S 26.2.23 (|error| < 4.5e-4)."""
    r = np.sqrt(-2.0 * s)
    z = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308)))
    return a * (1.0 - 1.0 / (9.0 * a) + np.where(upper, z, -z) / (3.0 * math.sqrt(a))) ** 3


def _solve_log_x(a: float, s: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """y = log x with log P(a, e^y) = s, or log Q(a, e^y) = s on the ``upper`` lanes.

    Newton's method on y: both sides are concave in y, so after the first step the
    iterates close in from one side; a lane is frozen once its step falls below
    2^-26 (the next would be below 2^-52).  Starts: P(a, x) < x^a / Gamma(a+1)
    below; above, fixed-point steps on Q(a, x) ~ x^(a-1) e^-x / Gamma(a) when a < 1,
    else the Wilson-Hilferty cube.  Where the tail underflows (below from shape ~2000,
    above far below 2^-60) the step is not finite and the lane moves nearer the root:
    below to the Wilson-Hilferty value or, from past it, up the fixed-point steps; above, down them.
    """
    lg = math.lgamma(a + 1.0)

    def fixed_point(y, s, up):  # on x^a e^-x / Gamma(a+1) = e^s, or x^(a-1) e^-x / Gamma(a) above
        for _ in range(4):
            y = np.where(up, np.log(np.maximum(-s - lg + math.log(a) + (a - 1.0) * y, 1.0)),
                         (s + lg + np.exp(y)) / a)
        return y

    with np.errstate(all="ignore"):  # the cube is negative at small shapes: NaN
        wilson = np.log(_wilson_hilferty(a, s, upper))
        y = np.where(upper, wilson, (s + lg) / a)
        if a < 1.0:
            y[upper] = fixed_point(np.zeros(np.count_nonzero(upper)), s[upper], True)
        live = np.arange(s.size)
        for _ in range(60):
            x = np.exp(y[live])
            p, q, pre = _pq(a, x, y[live])
            up = upper[live]
            tail_now = np.where(up, q, p)
            # d log P / dy = pre / P, d log Q / dy = -pre / Q
            step = (np.log(tail_now) - s[live]) * tail_now / np.where(up, -pre, pre)
            stuck = ~np.isfinite(step)
            y[live] -= np.where(stuck, 0.0, step)
            if stuck.any():
                lanes = live[stuck]
                y[lanes] = np.where(~upper[lanes] & (y[lanes] < wilson[lanes]), wilson[lanes],
                                    fixed_point(y[lanes], s[lanes], upper[lanes]))
            live = live[~(np.abs(step) < 2.0**-26)]
            if not live.size:
                break
    return y


def _shape(a: float) -> float:
    """The gamma shape a, checked: the quantiles, and so the draws, take it up to _SHAPE_MAX."""
    if not a <= _SHAPE_MAX:
        raise ArgumentError(f"shape={a:g} is too large: log Gamma(shape + 1) overflows a double")
    return a


def _gammaincinv(a: float, u, q=None) -> np.ndarray:
    """x >= 0 with P(a, x) = u for u in [0, 1], elementwise, shaped like u.

    ``q``, when given, is 1 - u without the rounding of 1 - u: the upper half
    (q < 1/2) solves Q(a, x) = q, so a tail far below 2^-53 keeps its bits.
    ``_solve_log_x`` starts the lower half from log u and the upper from log q,
    and one Halley step follows, its residual from ``_pq``.  u = 0 gives 0,
    q = 0 inf and NaN stays NaN.
    """
    _shape(a)
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    q = 1.0 - flat if q is None else np.asarray(q, dtype=np.float64).ravel()
    with np.errstate(all="ignore"):
        upper = q < 0.5
        tail = np.where(upper, q, flat)
        x = np.where(tail == 0.0, np.where(upper, np.inf, 0.0), np.nan)
        solve = np.flatnonzero(tail > 0.0)
        up, log_tail = upper[solve], np.log(tail[solve])
        log_x = _solve_log_x(a, log_tail, up)
        start = np.exp(log_x)
        p_x, q_x, pre = _pq(a, start, log_x)
        r = np.where(up, q[solve] - q_x, p_x - flat[solve])  # P(a, x) - u
        r[np.abs(r) <= 2.0**-1071] = 0.0  # the rounding of a subnormal P or Q, not a miss
        newton = r / pre * start  # r / pdf(x); r * x underflows at a subnormal x, x / pre overflows
        dx = newton / (1.0 - 0.5 * newton * ((a - 1.0) / start - 1.0))
        # dx is NaN where x underflowed to 0, and where the density did at a start off by
        # y's rounding: past shape ~1e28, whose spread a^-1/2 is smaller, the cube stands
        cube = _wilson_hilferty(a, log_tail, up)
        x[solve] = np.where(np.isfinite(dx), start - dx, np.where(cube > 0.0, cube, start))
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

    def _tiled_q(self, p: np.ndarray) -> np.ndarray:
        """``_q`` of p, one ``_TILE`` of lanes at a time into one output array, so its
        temporaries stay tile-sized; every ``_q`` is elementwise, so no bit changes.
        A quantile beyond a double raises instead of giving inf."""
        out = np.empty(p.shape)
        flat_p, flat_out = p.reshape(-1), out.reshape(-1)
        with np.errstate(over="ignore"):
            for a in range(0, flat_p.size, _TILE):
                tile = flat_out[a:a + _TILE]
                tile[...] = self._q(flat_p[a:a + _TILE])
                if not np.isfinite(tile).all():
                    raise ArgumentError(f"{self.label}: quantiles overflow a double")
        return out

    def quantile(self, p):
        """Quantile function Q(p) for p strictly inside (0, 1)."""
        arr = _reals("p", p)
        if (arr <= 0).any() or (arr >= 1).any():
            raise ArgumentError("quantile probabilities must lie strictly in (0, 1)")
        out = self._tiled_q(arr)
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
        """n i.i.d. draws from ``_draw``, fixed by seed (an int >= 0 or a SeedSequence)
        for a given numpy; a draw beyond a double raises."""
        n = _integer("n", n, 1)
        if not isinstance(seed, np.random.SeedSequence):
            seed = _integer("seed", seed, 0)
        with np.errstate(over="ignore"):
            out = self._draw(np.random.default_rng(seed), n)
        if not np.isfinite(out).all():
            raise ArgumentError(f"{self.label}: quantiles overflow a double")
        return out

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws by inverse transform: beyond them it holds their n uniforms and one
        tile of 8192 lanes of the quantile's temporaries."""
        return self._tiled_q(_open_unit(rng, n))

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
        return self.scale * _or_inf(math.gamma, 1.0 + 1.0 / self.shape)


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
        lower, upper, _ = _pq(0.5, 0.5 * z * z)  # Phi(z) = Q(1/2, z^2/2) / 2 below the median
        return np.where(x <= 0, 0.0, np.where(z < 0, 0.5 * upper, 0.5 + 0.5 * lower))

    def _pdf(self, x):
        xp = np.where(x <= 0, 1.0, x)
        z = (np.log(xp) - self.mu) / self.sigma
        sub = xp < np.finfo(float).tiny  # there e^(-z^2/2) may underflow and x * sigma lose
        out = np.exp(np.where(sub, -np.log(xp), 0.0) - 0.5 * z * z)  # bits: 1/x joins the exponent
        out /= np.where(sub, 1.0, xp) * self.sigma * math.sqrt(2.0 * math.pi)
        return np.where(x <= 0, 0.0, out)

    def mean(self) -> float:
        return _or_inf(math.exp, self.mu + 0.5 * self.sigma * self.sigma)


@dataclass(frozen=True)
class Gamma(Family):
    """Gamma with shape and scale; quantile via the regularized inverse."""

    shape: float
    scale: float = 1.0

    def _q(self, p):
        return self.scale * _gammaincinv(self.shape, p)

    def _draw(self, rng, n):  # above shape 1 Marsaglia & Tsang's (ACM TOMS 26, 2000); in place
        out = rng.standard_gamma(_shape(self.shape), n)
        out *= self.scale
        return out

    def _cdf(self, x):
        return _pq(self.shape, np.clip(x, 0, None) / self.scale)[0]

    def _pdf(self, x):
        xp, log_scale = np.where(x <= 0, self.scale, x), math.log(self.scale)
        log_z = np.log(xp) - log_scale  # log(xp / scale) would take the log of 0 or inf
        logp = (self.shape - 1.0) * log_z - xp / self.scale - math.lgamma(self.shape)
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

    def _abs_z(self, g):
        """|Z| = G^(1/beta), in place, from G ~ gamma(1/beta).  The power overflows to
        inf under the callers' errstate; past _SHAPE_MAX (or at 1 / beta = inf) every
        quantile but the median would, so ``_q`` passes G = inf there."""
        g **= 1.0 / self.beta
        if not np.isfinite(g).all():
            raise ArgumentError(f"beta={self.beta:g} is too small: quantiles overflow a double")
        return g

    def _q(self, p):
        # G's upper tail 2 min(p, 1 - p) is exact, where 1 - tail = |2p - 1| would
        # drop the low bits of a small p
        tail, shape = 2.0 * np.minimum(p, 1.0 - p), 1.0 / self.beta
        g = _gammaincinv(shape, 1.0 - tail, tail) if shape <= _SHAPE_MAX else np.full(p.shape, np.inf)
        z = self._abs_z(g)
        return self.mu + self.sigma * np.where(p >= 0.5, z, -z)

    def _draw(self, rng, n):
        if self.beta == 2.0:  # the normal member: numpy's normal sampler
            out = rng.standard_normal(n)
            out *= self.sigma / math.sqrt(2.0)
        else:  # a fair sign, one byte a draw, times |Z| from numpy's gamma sampler
            out = self._abs_z(rng.standard_gamma(1.0 / self.beta, n))
            np.negative(out, out=out, where=rng.integers(0, 2, n, dtype=bool))
            out *= self.sigma
        out += self.mu
        return out

    def _cdf(self, x):
        lower, upper, _ = _pq(1.0 / self.beta, (np.abs(x - self.mu) / self.sigma) ** self.beta)
        return np.where(x < self.mu, 0.5 * upper, 0.5 + 0.5 * lower)

    def _pdf(self, x):
        z = np.abs(x - self.mu) / self.sigma
        norm = self.beta / (2.0 * self.sigma * _or_inf(math.gamma, 1.0 / self.beta))
        return norm * np.exp(-(z**self.beta))

    def mean(self) -> float:
        return self.mu


@dataclass(frozen=True)
class Uniform(Family):
    """Uniform on (a, b).  Its formulas take the half-width h = b/2 - a/2, which is
    (b - a) / 2 exactly unless a or b is subnormal, so b - a cannot overflow."""

    _ANY_SIGN = ("a", "b")

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.a < self.b:
            raise ArgumentError(f"need a < b, got a={self.a}, b={self.b}")

    def _q(self, p):
        return 2.0 * (0.5 * self.a + p * (0.5 * self.b - 0.5 * self.a))

    def _cdf(self, x):
        return np.clip((0.5 * x - 0.5 * self.a) / (0.5 * self.b - 0.5 * self.a), 0.0, 1.0)

    def _pdf(self, x):
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 0.5 / (0.5 * self.b - 0.5 * self.a), 0.0)

    def mean(self) -> float:
        return float(_midpoint(self.a, self.b))


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
    """QA and the larger |Q| at each checked level pair (lo, hi), from one quantile call;
    ``lstat._midpoint`` halves each quantile first only where their sum overflows."""
    q = family._tiled_q(np.stack([lo, hi]))
    return _midpoint(q[0], q[1]), np.abs(q).max(axis=0)


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

    dQ(p)/dsigma = Phi^(-1)(p) * Q(p), Phi^(-1) from ``normal()``, so the derivative
    of the quantile average is the half-sum of the two weighted quantiles.
    """
    family = _instance("family", family, LogNormal)
    z = normal().quantile(_qa_levels(eps, gamma))
    with np.errstate(over="ignore"):
        q = np.exp(family.mu + family.sigma * z)
        if not np.isfinite(q).all():
            raise ArgumentError(f"{family.label}: quantiles overflow a double")
        return float(0.5 * (z[0] * q[0] + z[1] * q[1]))


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


def congruence_check(family: Family, param: str, gamma: float = 1.0, grid_size: int = 64,
                      h: float | None = None) -> CongruenceVerdict:
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
    verdict = ("congruent" if len(set(signs) - {0}) < 2
               else "inconclusive" if 0 in signs else "non-congruent")
    return CongruenceVerdict(family.label, param, gamma, tuple(grid), signs, verdict)
