"""Elementary trigonometric integrals over a reference-triangle angle range.

Everything here is a definite integral over [theta_lo, theta_hi], a range
strictly inside (-pi/2, pi/2), written in terms of

    Delta^2 = 1 - alpha^2 sin^2(theta),    0 <= alpha < 1,

with alpha' = sqrt(1 - alpha^2).  Two families are tabulated,

    plain[n] = integral (Delta/cos)^n dtheta,        n = -3 .. N,
    tan[n]   = integral (Delta/cos)^n tan dtheta,    n = -3 .. N,

via upward recursions seeded by closed forms, plus the logarithmic
integrals L_c and L_s.  Powers of (Delta/cos - alpha), which appear in all
potential-integral terms, reduce to these tables through the binomial
expansion.

Numerical notes.  Delta is always computed as hypot(cos, alpha' sin),
which stays accurate as alpha -> 1, and Delta - alpha' is expanded through
(Delta - alpha')(Delta + alpha') = alpha^2 cos^2(theta).  The closed-form
seeds for n = -3..-1 are rearranged so that no term divides a cancellation
by alpha^2; the raw antiderivatives in the source tables lose all
precision for small alpha.  Below ALPHA_ZERO the exact alpha = 0 forms are
used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# alpha below which the in-plane (alpha = 0) closed forms are used.
ALPHA_ZERO = 1e-8

# alpha below which tan[-3] switches to its series form: the antiderivative
# difference loses ~3 digits per decade of alpha below this point.
_T3_SERIES_ALPHA = 0.05


def _alpha_p_for(alpha: float, alpha_p: float | None) -> float:
    if alpha_p is not None:
        return alpha_p
    return math.sqrt((1.0 - alpha) * (1.0 + alpha))


def _delta(alpha_p: float, theta: float) -> float:
    return math.hypot(math.cos(theta), alpha_p * math.sin(theta))


# Series coefficients of asin(x)/x - 1: C(2m, m) / (4^m (2m+1)), m >= 1.
_ASIN_SERIES = (
    1.0 / 6.0,
    3.0 / 40.0,
    15.0 / 336.0,
    105.0 / 3456.0,
    945.0 / 42240.0,
    10395.0 / 599040.0,
    135135.0 / 9676800.0,
)


def _asin_ratio_m1(x: float) -> float:
    """(asin(x) - x) / x with full absolute accuracy near 0.

    The direct difference leaves an O(eps) absolute error that callers
    amplify by 1/alpha^2; the series keeps the error O(x^16).
    """
    if abs(x) < 0.1:
        x2 = x * x
        acc = 0.0
        for c in reversed(_ASIN_SERIES):
            acc = x2 * (c + acc)
        return acc
    return (math.asin(x) - x) / x


def _check_range(theta_lo: float, theta_hi: float) -> None:
    margin = 1e-12
    if not (-math.pi / 2 + margin < theta_lo <= theta_hi < math.pi / 2 - margin):
        raise ValueError(
            f"angle range [{theta_lo}, {theta_hi}] must lie strictly inside "
            "(-pi/2, pi/2)"
        )


def _plain_seed(n: int, alpha: float, alpha_p: float, theta: float) -> float:
    """Antiderivative of (Delta/cos)^n at theta, n in {-3, -2, -1}."""
    s = math.sin(theta)
    if alpha < ALPHA_ZERO:
        if n == -1:
            return s
        if n == -2:
            return 0.5 * (s * math.cos(theta) + theta)
        return s - s**3 / 3.0
    d = _delta(alpha_p, theta)
    x = alpha * s
    if n == -1:
        return s * (1.0 + _asin_ratio_m1(x))
    if n == -2:
        u = math.tan(theta)
        g = alpha * alpha * u / ((1.0 + alpha_p) * (1.0 + alpha_p * u * u))
        return theta / (1.0 + alpha_p) + alpha_p * math.atan(g) / (alpha * alpha)
    # n == -3: sin * [ (asin(x)-x)/x + alpha^2 (1 - sin^2/(1+Delta)) / Delta ] / alpha^2
    h = _asin_ratio_m1(x) + alpha * alpha * (1.0 - s * s / (1.0 + d)) / d
    return s * h / (alpha * alpha)


def build_pow_plain(
    alpha: float,
    theta_lo: float,
    theta_hi: float,
    n_max: int,
    alpha_p: float | None = None,
) -> np.ndarray:
    """Definite integrals of (Delta/cos)^n for n = -3 .. n_max.

    Index the returned array with [n + 3].  Orders n >= 1 come from the
    recursion G_n = alpha^2 G_{n-2} + alpha'^2 H_{n-2}, where H_m is the
    integral of (1 + alpha'^2 u^2)^{m/2} in u = tan(theta).
    """
    _check_range(theta_lo, theta_hi)
    alpha_p = _alpha_p_for(alpha, alpha_p)
    out = np.zeros(n_max + 4)
    for n in (-3, -2, -1):
        out[n + 3] = _plain_seed(n, alpha, alpha_p, theta_hi) - _plain_seed(
            n, alpha, alpha_p, theta_lo
        )
    out[3] = theta_hi - theta_lo
    if n_max >= 1:
        h = _h_table(alpha_p, theta_lo, theta_hi, n_max - 2)
        a2 = alpha * alpha
        ap2 = alpha_p * alpha_p
        for n in range(1, n_max + 1):
            out[n + 3] = a2 * out[n + 1] + ap2 * h[n - 2 + 2]
    return out


def _h_table(alpha_p: float, theta_lo: float, theta_hi: float, m_max: int) -> np.ndarray:
    """Definite integrals of (1 + alpha'^2 u^2)^{m/2} du, m = -2 .. m_max.

    Index with [m + 2].  Upward recursion
    H_m = (u p^m + m H_{m-2}) / (m + 1), p = sqrt(1 + alpha'^2 u^2).
    """
    vals = np.zeros((2, m_max + 3))
    for col, theta in enumerate((theta_lo, theta_hi)):
        u = math.tan(theta)
        p = math.hypot(1.0, alpha_p * u)
        vals[col, 0] = math.atan(alpha_p * u) / alpha_p
        vals[col, 1] = math.asinh(alpha_p * u) / alpha_p
        for m in range(0, m_max + 1):
            vals[col, m + 2] = (u * p**m + m * vals[col, m]) / (m + 1)
    return vals[1] - vals[0]


def _tan_seed_m3_series(alpha: float, theta_lo: float, theta_hi: float) -> float:
    """tan[-3] by series in alpha^2: integral cos^2 sin / Delta^3 dtheta."""
    c_lo = math.cos(theta_lo)
    c_hi = math.cos(theta_hi)
    total = 0.0
    poch = 1.0  # (3/2)_m / m!
    a2m = 1.0
    for m in range(0, 8):
        if m > 0:
            poch *= (0.5 + m) / m
            a2m *= alpha * alpha
        inner = 0.0
        for j in range(m + 1):
            inner += (
                math.comb(m, j)
                * (-1.0) ** j
                * (c_hi ** (2 * j + 3) - c_lo ** (2 * j + 3))
                / (2 * j + 3)
            )
        total += poch * a2m * (-inner)
    return total


def _log1p_u(alpha: float, alpha_p: float, theta: float) -> float:
    """log(alpha cos + Delta) evaluated as log1p of a small quantity."""
    c = math.cos(theta)
    s = math.sin(theta)
    d = _delta(alpha_p, theta)
    u = alpha * c - alpha * alpha * s * s / (1.0 + d)
    return math.log1p(u)


def build_pow_tan(
    alpha: float,
    theta_lo: float,
    theta_hi: float,
    n_max: int,
    alpha_p: float | None = None,
) -> np.ndarray:
    """Definite integrals of (Delta/cos)^n tan for n = -3 .. n_max.

    Index with [n + 3].  Orders n >= 1 follow
    T_n = alpha^2 T_{n-2} + (1/n) (Delta/cos)^n evaluated at the endpoints.
    """
    _check_range(theta_lo, theta_hi)
    alpha_p = _alpha_p_for(alpha, alpha_p)
    out = np.zeros(n_max + 4)
    c_lo, c_hi = math.cos(theta_lo), math.cos(theta_hi)
    s_lo, s_hi = math.sin(theta_lo), math.sin(theta_hi)
    if alpha < ALPHA_ZERO:
        out[0] = -(c_hi**3 - c_lo**3) / 3.0
        out[1] = 0.5 * (s_hi * s_hi - s_lo * s_lo)
        out[2] = -(c_hi - c_lo)
    else:
        a2 = alpha * alpha
        if alpha < _T3_SERIES_ALPHA:
            out[0] = _tan_seed_m3_series(alpha, theta_lo, theta_hi)
        else:
            def t3(theta, c):
                return c / (a2 * _delta(alpha_p, theta)) - _log1p_u(
                    alpha, alpha_p, theta
                ) / (a2 * alpha)

            out[0] = t3(theta_hi, c_hi) - t3(theta_lo, c_lo)
        out[1] = -(
            math.log1p(-a2 * s_hi * s_hi) - math.log1p(-a2 * s_lo * s_lo)
        ) / (2.0 * a2)
        out[2] = -(
            _log1p_u(alpha, alpha_p, theta_hi) - _log1p_u(alpha, alpha_p, theta_lo)
        ) / alpha
    out[3] = math.log(c_lo) - math.log(c_hi)
    a2 = alpha * alpha
    p_lo = _delta(alpha_p, theta_lo) / c_lo
    p_hi = _delta(alpha_p, theta_hi) / c_hi
    for n in range(1, n_max + 1):
        out[n + 3] = a2 * out[n + 1] + (p_hi**n - p_lo**n) / n
    return out


def l_c(alpha: float, theta_lo: float, theta_hi: float, alpha_p: float | None = None) -> float:
    """Definite integral of cos * log[(Delta - alpha')/(Delta + alpha')].

    Diverges logarithmically as alpha -> 0; callers only ever use it
    multiplied by |z| = alpha * S, and at alpha = 0 exactly it is taken as
    zero by that convention.
    """
    _check_range(theta_lo, theta_hi)
    if alpha == 0.0:
        return 0.0
    alpha_p = _alpha_p_for(alpha, alpha_p)

    def anti(theta: float) -> float:
        s = math.sin(theta)
        c = math.cos(theta)
        d = _delta(alpha_p, theta)
        w = 2.0 * (math.log(alpha * c) - math.log(d + alpha_p))
        m = 2.0 * math.copysign(1.0, s) * math.log((d + alpha_p * abs(s)) / c) if s != 0.0 else 0.0
        return s * w + m - 2.0 * alpha_p * s * (1.0 + _asin_ratio_m1(alpha * s))

    return anti(theta_hi) - anti(theta_lo)


def l_s(alpha: float, theta_lo: float, theta_hi: float, alpha_p: float | None = None) -> float:
    """Definite integral of sin * log[(Delta - alpha')/(Delta + alpha')]."""
    _check_range(theta_lo, theta_hi)
    if alpha == 0.0:
        return 0.0
    alpha_p = _alpha_p_for(alpha, alpha_p)

    def anti(theta: float) -> float:
        c = math.cos(theta)
        d = _delta(alpha_p, theta)
        w = 2.0 * (math.log(alpha * c) - math.log(d + alpha_p))
        return -c * w + 2.0 * alpha_p * _log1p_u(alpha, alpha_p, theta) / alpha

    return anti(theta_hi) - anti(theta_lo)


@functools.lru_cache(maxsize=64)
def _pascal(q_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(q, m), the exponent q - m and the table index m - s + 3.

    The first two are indexed [q, m] (C is zero and the exponent clipped
    to zero above the diagonal), the last [s, m], with q, m = 0 .. q_max
    and s = 0 .. 3.
    """
    q = np.arange(q_max + 1)
    comb = np.array([[math.comb(i, m) for m in q] for i in q], dtype=float)
    expo = np.maximum(q[:, None] - q[None, :], 0)
    shift = q[None, :] - np.arange(4)[:, None] + 3
    return comb, expo, shift


def binomial_combination(q_max: int, alpha: float, pow_values: np.ndarray) -> np.ndarray:
    """integral (Delta/cos - alpha)^q (Delta/cos)^{-s} dtheta from a table.

    Returns an array indexed [s, q], s = 0 .. 3, q = 0 .. q_max.  Since
    (x - alpha)^q = sum_m C(q, m) (-alpha)^{q-m} x^m, row s is the
    signed-Pascal matrix applied to the power table shifted down by s.
    ``pow_values`` is indexed by [n + 3] and must reach n = q_max.
    """
    comb, expo, shift = _pascal(q_max)
    signed = comb * ((-alpha) ** np.arange(q_max + 1))[expo]
    return pow_values[shift] @ signed.T


@dataclass
class ElemTable:
    """Tabulated elementary integrals for one (alpha, angle-range) pair.

    ``binom_plain`` and ``binom_tan`` hold ``binomial_combination`` of
    ``plain`` and ``tan``, indexed [s, q] with q = 0 .. n_max.
    """

    alpha: float
    alpha_p: float
    theta_lo: float
    theta_hi: float
    n_max: int
    plain: np.ndarray
    tan: np.ndarray
    lc: float
    ls: float
    binom_plain: np.ndarray
    binom_tan: np.ndarray

    def plain_pow(self, n: int) -> float:
        return float(self.plain[n + 3])

    def tan_pow(self, n: int) -> float:
        return float(self.tan[n + 3])


def build_table(
    alpha: float,
    theta_lo: float,
    theta_hi: float,
    n_max: int,
    alpha_p: float | None = None,
) -> ElemTable:
    """Build all elementary integrals needed for expansion order n_max - 2."""
    alpha_p = _alpha_p_for(alpha, alpha_p)
    plain = build_pow_plain(alpha, theta_lo, theta_hi, n_max, alpha_p)
    tan = build_pow_tan(alpha, theta_lo, theta_hi, n_max, alpha_p)
    return ElemTable(
        alpha=alpha,
        alpha_p=alpha_p,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        n_max=n_max,
        plain=plain,
        tan=tan,
        lc=l_c(alpha, theta_lo, theta_hi, alpha_p),
        ls=l_s(alpha, theta_lo, theta_hi, alpha_p),
        binom_plain=binomial_combination(n_max, alpha, plain),
        binom_tan=binomial_combination(n_max, alpha, tan),
    )
