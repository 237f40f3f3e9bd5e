"""Elementary trigonometric integrals over a reference-triangle angle range.

Everything here is a definite integral over [theta_lo, theta_hi], a range
strictly inside (-pi/2, pi/2), written in terms of

    Delta^2 = 1 - alpha^2 sin^2(theta),    0 <= alpha < 1,

with alpha' = sqrt(1 - alpha^2).  Two families are tabulated,

    plain[n] = integral (Delta/cos)^n dtheta,        n = -3 .. N,
    tan[n]   = integral (Delta/cos)^n tan dtheta,    n = -1 .. N,

via upward recursions seeded by closed forms, plus the logarithmic
integrals L_c and L_s.  Powers of (Delta/cos - alpha), which appear in all
potential-integral terms, reduce to these tables through the binomial
expansion; the expansion terms read the plain family at shifts s = 0 .. 3
and the tan family at s = 0, 1 only.

Numerical notes.  Delta is always computed as hypot(cos, alpha' sin),
which stays accurate as alpha -> 1, and Delta - alpha' is expanded through
(Delta - alpha')(Delta + alpha') = alpha^2 cos^2(theta).  The closed-form
seeds for n = -3..-1 are rearranged so that no term divides a cancellation
by alpha^2; the raw antiderivatives in the source tables lose all
precision for small alpha.  Below ALPHA_ZERO the exact alpha = 0 forms are
used.  The upward recursions run on the endpoint differences, with the
powers at each endpoint kept as running products, so no order calls
``pow``.

Everything that depends only on the order is built once and cached
(``_pascal``): the signed Pascal matrix, its exponents and the index
through which one ``take`` gathers the six shifted rows the expansion
terms read from the two tables laid end to end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# alpha below which the in-plane (alpha = 0) closed forms are used.
ALPHA_ZERO = 1e-8


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
            out.append(a2 * out[n + 1] + ap2 * h[n - 1])
    return out


def _h_table(alpha_p: float, u_lo: float, u_hi: float, m_max: int) -> list:
    """Definite integrals of (1 + alpha'^2 u^2)^{m/2} du, m = -1 .. m_max.

    Index with [m + 1].  Seeds H_{-1} = [asinh(alpha' u)]/alpha' and
    H_0 = [u], then the upward recursion on the endpoint differences
    H_m = ([u p^m] + m H_{m-2}) / (m + 1), p = sqrt(1 + alpha'^2 u^2),
    with [f] = f(u_hi) - f(u_lo) and u p^m kept as a running product at
    each endpoint.
    """
    p_lo = math.hypot(1.0, alpha_p * u_lo)
    p_hi = math.hypot(1.0, alpha_p * u_hi)
    h = [(math.asinh(alpha_p * u_hi) - math.asinh(alpha_p * u_lo)) / alpha_p, u_hi - u_lo]
    a_lo, a_hi = u_lo, u_hi
    for m in range(1, m_max + 1):
        a_lo *= p_lo
        a_hi *= p_hi
        h.append((a_hi - a_lo + m * h[m - 1]) / (m + 1))
    return h


def _pow_tan(alpha: float, lo: tuple, hi: tuple, n_max: int) -> list:
    """tan[n], n = -1 .. n_max, from the endpoint tuples, indexed [n + 1].

    Orders n >= 1 follow T_n = alpha^2 T_{n-2} + (1/n) [(Delta/cos)^n],
    the endpoint difference of running powers.
    """
    _, _, c_lo, _, d_lo, _, lu_lo = lo
    _, _, c_hi, _, d_hi, _, lu_hi = hi
    a2 = alpha * alpha
    t_m1 = -(c_hi - c_lo) if alpha < ALPHA_ZERO else -(lu_hi - lu_lo) / alpha
    out = [t_m1, math.log(c_lo) - math.log(c_hi)]
    p_lo = d_lo / c_lo
    p_hi = d_hi / c_hi
    pn_lo = pn_hi = 1.0
    for n in range(1, n_max + 1):
        pn_lo *= p_lo
        pn_hi *= p_hi
        out.append(a2 * out[n - 1] + (pn_hi - pn_lo) / n)
    return out


def _logs(alpha: float, alpha_p: float, lo: tuple, hi: tuple) -> tuple[float, float]:
    """L_c and L_s from the endpoint tuples; both zero at alpha = 0 (see ElemTable)."""
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


@functools.lru_cache(maxsize=64)
def _pascal(q_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(-1)^(q - m) C(q, m), the exponent q - m, the orders 0 .. q_max and the row index.

    The first two are indexed [q, m], q, m = 0 .. q_max (the signed
    binomial is zero and the exponent clipped to zero above the diagonal).
    The orders are floats, so that alpha^q is one float power per order,
    and the sign sits here, so that its base alpha is never negative: a
    negative base takes the slow path of ``pow``, for the same bits.  The
    row index, (6, q_max + 1), picks entry [r, m] of the rows that
    ``binomial_combination`` returns: plain[m - s] for s = 0 .. 3, then
    tan[m - s] for s = 0, 1, from plain[n + 3] and tan[n + 1] laid end to
    end.
    """
    orders = range(q_max + 1)
    comb = np.array([[(-1.0) ** (i - m) * math.comb(i, m) for m in orders] for i in orders])
    q = np.arange(q_max + 1)
    expo = np.maximum(q[:, None] - q[None, :], 0)
    start = np.array([3, 2, 1, 0, q_max + 5, q_max + 4])  # where row r's m = 0 sits
    return comb, expo, q.astype(float), start[:, None] + q


def binomial_combination(q_max: int, alpha: float, powers: np.ndarray) -> np.ndarray:
    """integral (Delta/cos - alpha)^q (Delta/cos)^{-s} [tan] dtheta from the tables.

    ``powers`` is plain[n + 3], n = -3 .. q_max, followed by tan[n + 1],
    n = -1 .. q_max (length 2 q_max + 6).  Returns the six rows the
    expansion terms read, indexed [r, q], q = 0 .. q_max: the plain family
    at s = 0 .. 3 (r = s), then the tan family at s = 0, 1 (r = 4 + s).
    Since (x - alpha)^q = sum_m C(q, m) (-alpha)^{q-m} x^m, each row is
    the signed-Pascal matrix applied to its table shifted down by s: one
    ``take`` gathers the six shifted tables, one product applies it.
    """
    comb, expo, q, rows = _pascal(q_max)
    signed = comb * (alpha**q)[expo]
    return powers.take(rows) @ signed.T


@dataclass(slots=True)
class ElemTable:
    """Tabulated elementary integrals for one (alpha, angle-range) pair.

    ``plain`` holds plain[n] at [n + 3], n = -3 .. n_max, and ``tan``
    holds tan[n] at [n + 1], n = -1 .. n_max, as Python floats; ``binom``
    holds their ``binomial_combination``, (6, n_max + 1): the plain rows
    s = 0 .. 3, then the tan rows s = 0, 1.  ``lc`` and ``ls`` are the
    definite integrals of cos and sin times
    log[(Delta - alpha')/(Delta + alpha')].  L_c diverges logarithmically as
    alpha -> 0; callers only ever use it multiplied by |z| = alpha * S, so
    at alpha = 0 exactly both are stored as zero by that convention.
    """

    plain: list[float]
    tan: list[float]
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
    """Build all elementary integrals needed for expansion order n_max - 1.

    Each endpoint's trigonometric values are computed once and shared by
    both power tables and L_c, L_s; one ``binomial_combination`` serves
    both families.
    """
    _check_range(theta_lo, theta_hi)
    if alpha_p is None:
        alpha_p = math.sqrt((1.0 - alpha) * (1.0 + alpha))
    lo, hi = _endpoint(alpha, alpha_p, theta_lo), _endpoint(alpha, alpha_p, theta_hi)
    plain = _pow_plain(alpha, alpha_p, lo, hi, n_max)
    tan = _pow_tan(alpha, lo, hi, n_max)
    lc, ls = _logs(alpha, alpha_p, lo, hi)
    return ElemTable(plain, tan, lc, ls, binomial_combination(n_max, alpha, np.array(plain + tan)))
