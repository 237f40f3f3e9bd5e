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
import operator
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

# The eight terms m of the tan[-3] series: C(m, j) (-1)^j for j = 0 .. m,
# the exponents 2 j + 3 and (3/2)_m / m!.
_T3_COMB = tuple(tuple(math.comb(m, j) * (-1.0) ** j for j in range(m + 1)) for m in range(8))
_T3_ODD = tuple(2 * j + 3 for j in range(8))
_T3_POCH = tuple(math.prod((0.5 + i) / i for i in range(1, m + 1)) for m in range(8))


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


def _endpoint(alpha: float, alpha_p: float, theta: float) -> tuple:
    """Everything the closed forms read at one angle endpoint.

    (theta, sin, cos, tan, Delta, (asin(x) - x)/x with x = alpha sin, and
    log(alpha cos + Delta) evaluated as log1p of a small quantity).
    """
    s = math.sin(theta)
    c = math.cos(theta)
    d = math.hypot(c, alpha_p * s)
    return (
        theta,
        s,
        c,
        math.tan(theta),
        d,
        _asin_ratio_m1(alpha * s),
        math.log1p(alpha * c - alpha * alpha * s * s / (1.0 + d)),
    )


def _endpoints(alpha: float, theta_lo: float, theta_hi: float, alpha_p: float | None) -> tuple:
    """alpha' and the two endpoint tuples of an angle range."""
    _check_range(theta_lo, theta_hi)
    alpha_p = _alpha_p_for(alpha, alpha_p)
    return alpha_p, _endpoint(alpha, alpha_p, theta_lo), _endpoint(alpha, alpha_p, theta_hi)


def _pow_plain(alpha: float, alpha_p: float, lo: tuple, hi: tuple, n_max: int) -> list:
    """plain[n], n = -3 .. n_max, from the endpoint tuples.

    The seeds n = -3 .. -1 are closed-form antiderivatives; orders n >= 1
    come from the recursion G_n = alpha^2 G_{n-2} + alpha'^2 H_{n-2}, where
    H_m is the integral of (1 + alpha'^2 u^2)^{m/2} in u = tan(theta).
    """
    a2 = alpha * alpha
    anti = []
    for th, s, c, u, d, asin_m1, _ in (lo, hi):
        if alpha < ALPHA_ZERO:
            anti.append((s - s**3 / 3.0, 0.5 * (s * c + th), s))
            continue
        # n = -3: sin * [ (asin(x)-x)/x + alpha^2 (1 - sin^2/(1+Delta)) / Delta ] / alpha^2
        g = a2 * u / ((1.0 + alpha_p) * (1.0 + alpha_p * u * u))
        anti.append((
            s * (asin_m1 + a2 * (1.0 - s * s / (1.0 + d)) / d) / a2,
            th / (1.0 + alpha_p) + alpha_p * math.atan(g) / a2,
            s * (1.0 + asin_m1),
        ))
    out = [b - a for a, b in zip(*anti)]
    out.append(hi[0] - lo[0])
    if n_max >= 1:
        h = _h_table(alpha_p, lo[3], hi[3], n_max - 2)
        ap2 = alpha_p * alpha_p
        for n in range(1, n_max + 1):
            out.append(a2 * out[n + 1] + ap2 * h[n])
    return out


def _h_table(alpha_p: float, u_lo: float, u_hi: float, m_max: int) -> list:
    """Definite integrals of (1 + alpha'^2 u^2)^{m/2} du, m = -2 .. m_max.

    Index with [m + 2].  Upward recursion
    H_m = (u p^m + m H_{m-2}) / (m + 1), p = sqrt(1 + alpha'^2 u^2).
    """
    anti = []
    for u in (u_lo, u_hi):
        p = math.hypot(1.0, alpha_p * u)
        v = [math.atan(alpha_p * u) / alpha_p, math.asinh(alpha_p * u) / alpha_p]
        for m in range(0, m_max + 1):
            v.append((u * p**m + m * v[m]) / (m + 1))
        anti.append(v)
    return [b - a for a, b in zip(*anti)]


def _tan_seed_m3_series(alpha: float, c_lo: float, c_hi: float) -> float:
    """tan[-3] by series in alpha^2: integral cos^2 sin / Delta^3 dtheta.

    Term m is (3/2)_m / m! alpha^(2m) times minus the integral of
    cos^2 (1 - cos^2)^m sin, expanded binomially in powers of cos.
    """
    d = [(c_hi**o - c_lo**o) / o for o in _T3_ODD]
    total = 0.0
    a2m = 1.0
    for poch, comb in zip(_T3_POCH, _T3_COMB):
        total -= poch * a2m * sum(map(operator.mul, comb, d))
        a2m *= alpha * alpha
    return total


def _pow_tan(alpha: float, lo: tuple, hi: tuple, n_max: int) -> list:
    """tan[n], n = -3 .. n_max, from the endpoint tuples.

    Orders n >= 1 follow T_n = alpha^2 T_{n-2} + (1/n) (Delta/cos)^n
    evaluated at the endpoints.
    """
    _, s_lo, c_lo, _, d_lo, _, lu_lo = lo
    _, s_hi, c_hi, _, d_hi, _, lu_hi = hi
    a2 = alpha * alpha
    if alpha < ALPHA_ZERO:
        out = [-(c_hi**3 - c_lo**3) / 3.0, 0.5 * (s_hi * s_hi - s_lo * s_lo), -(c_hi - c_lo)]
    else:
        if alpha < _T3_SERIES_ALPHA:
            t3 = _tan_seed_m3_series(alpha, c_lo, c_hi)
        else:
            t3 = (c_hi / (a2 * d_hi) - lu_hi / (a2 * alpha)) - (
                c_lo / (a2 * d_lo) - lu_lo / (a2 * alpha)
            )
        out = [
            t3,
            -(math.log1p(-a2 * s_hi * s_hi) - math.log1p(-a2 * s_lo * s_lo)) / (2.0 * a2),
            -(lu_hi - lu_lo) / alpha,
        ]
    out.append(math.log(c_lo) - math.log(c_hi))
    p_lo = d_lo / c_lo
    p_hi = d_hi / c_hi
    for n in range(1, n_max + 1):
        out.append(a2 * out[n + 1] + (p_hi**n - p_lo**n) / n)
    return out


def _logs(alpha: float, alpha_p: float, lo: tuple, hi: tuple) -> tuple[float, float]:
    """L_c and L_s from the endpoint tuples; both zero at alpha = 0 (see l_c)."""
    if alpha == 0.0:
        return 0.0, 0.0
    anti = []
    for _, s, c, _, d, asin_m1, lu in (lo, hi):
        w = 2.0 * (math.log(alpha * c) - math.log(d + alpha_p))
        m = 2.0 * math.copysign(1.0, s) * math.log((d + alpha_p * abs(s)) / c) if s != 0.0 else 0.0
        anti.append((
            s * w + m - 2.0 * alpha_p * s * (1.0 + asin_m1),
            -c * w + 2.0 * alpha_p * lu / alpha,
        ))
    (lc_lo, ls_lo), (lc_hi, ls_hi) = anti
    return lc_hi - lc_lo, ls_hi - ls_lo


def build_pow_plain(
    alpha: float,
    theta_lo: float,
    theta_hi: float,
    n_max: int,
    alpha_p: float | None = None,
) -> np.ndarray:
    """Definite integrals of (Delta/cos)^n for n = -3 .. n_max.

    Index the returned array with [n + 3].  Row 0 of ``build_table``'s
    ``powers``.
    """
    alpha_p, lo, hi = _endpoints(alpha, theta_lo, theta_hi, alpha_p)
    return np.array(_pow_plain(alpha, alpha_p, lo, hi, n_max))


def build_pow_tan(
    alpha: float,
    theta_lo: float,
    theta_hi: float,
    n_max: int,
    alpha_p: float | None = None,
) -> np.ndarray:
    """Definite integrals of (Delta/cos)^n tan for n = -3 .. n_max.

    Index with [n + 3].  Row 1 of ``build_table``'s ``powers``.
    """
    _, lo, hi = _endpoints(alpha, theta_lo, theta_hi, alpha_p)
    return np.array(_pow_tan(alpha, lo, hi, n_max))


def l_c(alpha: float, theta_lo: float, theta_hi: float, alpha_p: float | None = None) -> float:
    """Definite integral of cos * log[(Delta - alpha')/(Delta + alpha')].

    Diverges logarithmically as alpha -> 0; callers only ever use it
    multiplied by |z| = alpha * S, and at alpha = 0 exactly it is taken as
    zero by that convention.
    """
    alpha_p, lo, hi = _endpoints(alpha, theta_lo, theta_hi, alpha_p)
    return _logs(alpha, alpha_p, lo, hi)[0]


def l_s(alpha: float, theta_lo: float, theta_hi: float, alpha_p: float | None = None) -> float:
    """Definite integral of sin * log[(Delta - alpha')/(Delta + alpha')]."""
    alpha_p, lo, hi = _endpoints(alpha, theta_lo, theta_hi, alpha_p)
    return _logs(alpha, alpha_p, lo, hi)[1]


@functools.lru_cache(maxsize=64)
def _pascal(q_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """C(q, m), the exponent q - m, the table index m - s + 3 and 0 .. q_max.

    The first two are indexed [q, m] (C is zero and the exponent clipped
    to zero above the diagonal), the third [s, m], with q, m = 0 .. q_max
    and s = 0 .. 3.
    """
    q = np.arange(q_max + 1)
    comb = np.array([[math.comb(i, m) for m in q] for i in q], dtype=float)
    expo = np.maximum(q[:, None] - q[None, :], 0)
    shift = q[None, :] - np.arange(4)[:, None] + 3
    return comb, expo, shift, q


def binomial_combination(q_max: int, alpha: float, pow_values: np.ndarray) -> np.ndarray:
    """integral (Delta/cos - alpha)^q (Delta/cos)^{-s} dtheta from a table.

    Returns an array indexed [..., s, q], s = 0 .. 3, q = 0 .. q_max, with
    one leading axis per leading axis of ``pow_values`` (one power table
    per row).  Since (x - alpha)^q = sum_m C(q, m) (-alpha)^{q-m} x^m,
    row s is the signed-Pascal matrix applied to the power table shifted
    down by s.  ``pow_values`` is indexed by [..., n + 3] and must reach
    n = q_max.
    """
    comb, expo, shift, q = _pascal(q_max)
    signed = comb * ((-alpha) ** q)[expo]
    return pow_values[..., shift] @ signed.T


@dataclass(slots=True)
class ElemTable:
    """Tabulated elementary integrals for one (alpha, angle-range) pair.

    ``powers`` stacks plain (row 0) and tan (row 1), each indexed [n + 3]
    with n = -3 .. n_max; ``binom`` holds their ``binomial_combination``,
    indexed [family, s, q] with q = 0 .. n_max.
    """

    n_max: int
    powers: np.ndarray
    lc: float
    ls: float
    binom: np.ndarray


def build_table(
    alpha: float,
    theta_lo: float,
    theta_hi: float,
    n_max: int,
    alpha_p: float | None = None,
) -> ElemTable:
    """Build all elementary integrals needed for expansion order n_max - 2.

    Each endpoint's trigonometric values are computed once and shared by
    both power tables and L_c, L_s; one ``binomial_combination`` serves
    both families.
    """
    alpha_p, lo, hi = _endpoints(alpha, theta_lo, theta_hi, alpha_p)
    powers = np.array([_pow_plain(alpha, alpha_p, lo, hi, n_max), _pow_tan(alpha, lo, hi, n_max)])
    lc, ls = _logs(alpha, alpha_p, lo, hi)
    return ElemTable(
        n_max=n_max,
        powers=powers,
        lc=lc,
        ls=ls,
        binom=binomial_combination(n_max, alpha, powers),
    )
