"""Central-moment kernel functions.

The kth central moment of a distribution admits a symmetric kernel in k
variables whose expectation under i.i.d. draws is exactly the moment
(Heffernan 1997), which is what makes U-statistic estimation of central
moments possible:

    psi_k(x_1, ..., x_k) = sum_{j=0}^{k-2} (-1)^j (1/(k-j))
                               sum x_{i1}^{k-j} x_{i2} ... x_{i(j+1)}
                           + (-1)^(k-1) (k-1) x_1 ... x_k

where the inner sum runs over i1 != i2 != ... != i(j+1) with
i2 < i3 < ... < i(j+1).  For k = 2 this is the familiar
psi_2(x1, x2) = (x1 - x2)^2 / 2.

This module evaluates psi_k for 2 <= k <= 12, exposes the closed-form value
at two-valued configurations (all coordinates equal to one of two levels),
the extrema of psi_k over tuples of fixed range, and the exact alternating
binomial sums that make the kernel's location-invariance identity work.

Evaluation strategy: psi_k is shift invariant, so it is evaluated on each
tuple centred at its own mean, d_i = x_i - mean(x).  There it is a
polynomial in the power sums p_r = sum_i d_i^r, with one exact rational
coefficient per partition of k into parts >= 2 (21 terms at k = 12).  The
coefficients are derived once per order, in exact arithmetic, from the
definition above: sum_i x_i^(k-j) e_j(x without i) expands to
sum_m (-1)^m e_(j-m) p_(k-j+m), and Newton's identities turn each elementary
symmetric polynomial e_r into power sums with p_1 = 0.  Centring keeps every
term at the scale of the tuple's spread, so a location offset costs no
accuracy.  ``kernel_values`` evaluates rows as given (k = 2 by ``_psi2``, which
pairwise selection shares, so both agree bit for bit); ``central_moment_kernel``
sorts each tuple first, so it is exactly (bit for bit) permutation invariant.
Rows are evaluated one fixed tile at a time, so the kernel's own temporaries
are bounded by the tile, not by the batch: beyond its output, a call holds
O(k) tile-sized arrays however many rows it is given.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, UnsupportedOrderError
from .lstat import _OVERFLOW

__all__ = [
    "MAX_ORDER",
    "central_moment_kernel",
    "kernel_values",
    "boundary_kernel_value",
    "kernel_support_bounds",
    "signed_binomial_sums",
]

#: Largest supported moment order.  Every order up to it is checked against
#: the exact rational kernel; the power-sum polynomial itself stays small
#: (21 terms at k = 12).
MAX_ORDER = 12

# Rows of an (m, k) batch evaluated at once.  Each of the kernel's temporaries
# is one tile of doubles (64 KiB), so all of them (15 at k = 12) and the tile's
# input stay in a core's L2 cache, and none is large enough to be mapped fresh.
# 2^14 rows was as fast at k <= 4 but 15 % slower at k >= 6 (see CHANGES.md).
_TILE = 1 << 13


def _check_order(k) -> int:
    if not isinstance(k, (int, np.integer)):
        raise ArgumentError(f"moment order must be an integer, got {k!r}")
    k = int(k)
    if k < 2:
        raise ArgumentError(f"moment order must be >= 2, got {k}")
    if k > MAX_ORDER:
        raise UnsupportedOrderError(
            f"moment order {k} exceeds the supported cap {MAX_ORDER}"
        )
    return k


# ---------------------------------------------------------------------------
# power-sum polynomial
# ---------------------------------------------------------------------------

_Poly = dict[tuple[int, ...], Fraction]  # sorted power-sum orders -> coefficient


def _add_term(poly: _Poly, parts: tuple[int, ...], coef: Fraction) -> None:
    key = tuple(sorted(parts))
    poly[key] = poly.get(key, Fraction(0)) + coef


@functools.cache
def _power_sum_coefficients(k: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """psi_k of a mean-centred tuple as exact (power-sum orders, coefficient) pairs.

    Orders (r_1, ..., r_m) stand for the product p_(r_1) ... p_(r_m); they
    run over the partitions of k into parts >= 2.
    """
    # Newton's identities with p_1 = 0: r e_r = sum_{i>=2} (-1)^(i-1) e_(r-i) p_i
    e: list[_Poly] = [{(): Fraction(1)}]
    for r in range(1, k + 1):
        e_r: _Poly = {}
        for i in range(2, r + 1):
            for parts, c in e[r - i].items():
                _add_term(e_r, parts + (i,), Fraction((-1) ** (i - 1), r) * c)
        e.append(e_r)
    psi: _Poly = {}
    for j in range(k - 1):
        for m in range(j + 1):
            for parts, c in e[j - m].items():
                _add_term(psi, parts + (k - j + m,), Fraction((-1) ** (j + m), k - j) * c)
    for parts, c in e[k].items():
        _add_term(psi, parts, (-1) ** (k - 1) * (k - 1) * c)
    return tuple((parts, c) for parts, c in sorted(psi.items()) if c)


def _power_sum_kernel(x: np.ndarray, k: int) -> np.ndarray:
    """psi_k of each row of an (m, k) array from its centred power sums.

    Rows are taken _TILE at a time, so each temporary stays cache-sized; every
    operation is elementwise, so the tiling changes no bit of the result.
    """
    terms = _power_sum_coefficients(k)
    orders = {r for parts, _ in terms for r in parts}
    out = np.zeros(x.shape[0])
    for start in range(0, x.shape[0], _TILE):
        cols = [x[start:start + _TILE, i] for i in range(k)]
        mean = cols[0].copy()
        for col in cols[1:]:
            mean += col
        mean /= k
        sums = {r: np.zeros(mean.size) for r in orders}
        for col in cols:
            d = col - mean
            power = d * d
            for r in range(2, k + 1):
                if r > 2:
                    power *= d
                if r in sums:
                    sums[r] += power
        tile = out[start:start + _TILE]
        for parts, coef in terms:
            term = sums[parts[0]] * float(coef)
            for r in parts[1:]:
                term *= sums[r]
            tile += term
    return out


def _psi2(d):
    """psi_2 of pairs whose difference is d."""
    return 0.5 * d * d


def kernel_values(x: np.ndarray, k: int) -> np.ndarray:
    """Evaluate psi_k on each row of an (m, k) array, as given.

    Rows are not sorted.  For k >= 3 the last bits depend on the order
    within a row: the pipeline passes ascending rows, and
    ``central_moment_kernel`` sorts each tuple first.
    """
    k = _check_order(k)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != k:
        raise ArgumentError(
            f"expected an (m, {k}) array of {k}-tuples, got shape {x.shape}"
        )
    if k == 2:
        return _psi2(x[:, 0] - x[:, 1])
    return _power_sum_kernel(x, k)


def central_moment_kernel(values, k: int | None = None):
    """psi_k(values): the unbiased central-moment kernel.

    Parameters
    ----------
    values : array-like
        A tuple of k reals, or an (m, k) batch of tuples.
    k : int, optional
        Moment order; inferred from the trailing axis when omitted and
        validated against it when given.

    Returns
    -------
    float or ndarray
        Kernel value per tuple; each tuple is sorted first, so bit for bit
        permutation invariant.  A value beyond a double raises ``ArgumentError``.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ArgumentError(f"expected a k-tuple or an (m, k) batch, got ndim={x.ndim}")
    width = x.shape[-1]
    if k is None:
        k = width
    k = _check_order(k)
    if width != k:
        raise ArgumentError(f"tuple length {width} does not match order k={k}")
    if not np.isfinite(x).all():
        raise ArgumentError("kernel arguments must be finite")
    x = np.sort(x, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        values = kernel_values(np.atleast_2d(x), k)
    if not np.isfinite(values).all():
        raise ArgumentError(_OVERFLOW)
    return float(values[0]) if x.ndim == 1 else values


# ---------------------------------------------------------------------------
# closed-form identities
# ---------------------------------------------------------------------------

def boundary_kernel_value(k: int, i: int, a: float, b: float) -> float:
    """psi_k at the two-valued configuration (a, ..., a, b, ..., b).

    With the first i coordinates at ``a`` and the remaining k - i at ``b``,

        psi_k = C(k, i)^(-1) * (-1)^(1+i) * (a - b)^k       (1 <= i <= k-1)

    These configurations realize the extrema of psi_k over tuples of fixed
    range, which is what pins down the support of the fixed-range slices of
    the kernel distribution.
    """
    k = _check_order(k)
    if not isinstance(i, (int, np.integer)):
        raise ArgumentError(f"i must be an integer, got {i!r}")
    i = int(i)
    if not 1 <= i <= k - 1:
        raise ArgumentError(f"need 1 <= i <= k-1, got i={i} for k={k}")
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArgumentError("boundary levels must be finite")
    return (-1.0) ** (1 + i) * (a - b) ** k / math.comb(k, i)


def kernel_support_bounds(k: int, delta: float) -> tuple[float, float]:
    """Extrema of psi_k over tuples whose minimum minus maximum equals delta.

    For delta = min - max <= 0 the attainable kernel values span

        ( -C(k, (3 + (-1)^k)/2)^(-1) * (-delta)^k ,  (1/k) * (-delta)^k )

    i.e. the envelope of the fixed-range component of the kernel
    distribution.  Meaningful for k >= 3; for k = 2 the kernel is constant
    delta^2/2 on such tuples and the lower bound is vacuous.
    """
    k = _check_order(k)
    delta = float(delta)
    if not math.isfinite(delta):
        raise ArgumentError("delta must be finite")
    if delta > 0:
        raise ArgumentError(f"delta = min - max must be <= 0, got {delta}")
    span = (-delta) ** k
    lower = -span / math.comb(k, (3 + (-1) ** k) // 2)
    upper = span / k
    return lower, upper


def signed_binomial_sums(k: int, h: int) -> tuple[Fraction, Fraction]:
    """The two alternating binomial sums behind the kernel's shift invariance.

    Computes, exactly,

        S1 = sum_{g=k-h+1}^{k-1} (-1)^(g+1) C(h-1, g-k+h-1)
        S2 = sum_{g=k-h+1}^{k-1} (-1)^(g+1) C(h-1, g-k+h-1) (g-k+h-1)/(k-g+1)

    for 2 <= h <= k.  These evaluate in closed form to (-1)^k and
    (h-2) (-1)^k respectively, which is what cancels every shift term in
    psi_k(lambda*x + mu).  Returned as exact rationals.
    """
    if not isinstance(k, (int, np.integer)) or not isinstance(h, (int, np.integer)):
        raise ArgumentError("k and h must be integers")
    k = int(k)
    h = int(h)
    if k < 2 or not 2 <= h <= k:
        raise ArgumentError(f"need 2 <= h <= k with k >= 2, got k={k}, h={h}")
    s1 = Fraction(0)
    s2 = Fraction(0)
    for g in range(k - h + 1, k):
        c = (-1) ** (g + 1) * math.comb(h - 1, g - k + h - 1)
        s1 += c
        s2 += Fraction(c * (g - k + h - 1), k - g + 1)
    return s1, s2
