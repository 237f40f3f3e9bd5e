"""Elementary trigonometric integrals over a reference-triangle angle range.

Everything here is a definite integral over [theta_lo, theta_hi], a range
strictly inside (-pi/2, pi/2), written in terms of

    Delta^2 = 1 - alpha^2 sin^2(theta),    p = Delta / cos(theta),

with 0 <= alpha <= 1 and alpha' = sqrt(1 - alpha^2).  Two families are
tabulated,

    plain[n] = integral p^n dtheta,        n = -3 .. N,
    tan[n]   = integral p^n tan dtheta,    n = -1 .. N,

plus the logarithmic integrals L_c and L_s.  Powers of (p - alpha), which
appear in all potential-integral terms, reduce to these tables through the
binomial expansion; the expansion terms read the plain family at shifts
s = 0 .. 3 and the tan family at s = 0, 1 only.

Seeds.  plain[-3 .. 1], tan[-1], tan[0], L_c and L_s are closed-form
antiderivatives, evaluated at each end and differenced.  Delta is
hypot(cos, alpha' sin), with alpha' passed in: when alpha = |z|/S rounds
to 1 just above an edge's line, alpha' = s/S still holds its digits.  No
form cancels, at either limit of alpha:

- asin(alpha sin) = atan2(alpha sin, Delta), which stays accurate near
  theta = +-pi/2 as alpha -> 1, where asin's argument is near 1;
  (asin(x) - x)/x is summed as a series for small x, since the seeds for
  n = -3 .. -1 divide it by alpha^2;
- 1 - sin^2/(1 + Delta) = (cos^2 + Delta)/(1 + Delta);
- log(alpha cos + Delta) is taken directly when the sum is below 1/2, and
  as log1p(alpha cos - alpha^2 sin^2/(1 + Delta)) otherwise, where the sum
  is near 1 (small alpha).

Below ALPHA_ZERO the exact alpha = 0 forms of plain[-3 .. -1] and tan[-1]
are used.

Orders.  Both families run upward on endpoint differences
[f] = f(theta_hi) - f(theta_lo), with the powers of p at each end kept as
running products, so no order calls ``pow``:

    tan[n] = alpha^2 tan[n-2] + [p^n] / n,
    (n-1) plain[n] = alpha'^2 [p^(n-2) tan] + (n - 2 + alpha^2 (n-1)) plain[n-2]
                     - alpha^2 (n-2) plain[n-4],                       n >= 2.

Both come from d p / dtheta = tan (p^2 - alpha^2) / p: the first from the
derivative of p^n, the second from that of p^(n-2) tan, with
1 + tan^2 = (p^2 - alpha^2) / alpha'^2.  At alpha = 0 the second is the
reduction formula for the integral of sec^n.  Its odd orders start from
plain[1] = alpha^2 plain[-1] + alpha' [asinh(alpha' tan)], which divides
by nothing, so alpha' may be 0.

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


def _asin_ratio_m1(x: float, d: float) -> float:
    """(asin(x) - x) / x with full absolute accuracy, given d = sqrt(1 - x^2).

    Near 0 the direct difference leaves an O(eps) absolute error that
    callers amplify by 1/alpha^2, so the series is summed (error O(x^16));
    elsewhere asin(x) is atan2(x, d).
    """
    if abs(x) < 0.1:
        x2 = x * x
        acc = 0.0
        for c in reversed(_ASIN_SERIES):
            acc = x2 * (c + acc)
        return acc
    return (math.atan2(x, d) - x) / x


def _check_range(theta_lo: float, theta_hi: float) -> None:
    margin = 1e-12
    if not (-math.pi / 2 + margin < theta_lo <= theta_hi < math.pi / 2 - margin):
        raise ValueError(
            f"angle range [{theta_lo}, {theta_hi}] must lie strictly inside "
            "(-pi/2, pi/2)"
        )


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
    out = comb, expo, q.astype(float), start[:, None] + q
    for a in out:
        a.flags.writeable = False  # cached and shared
    return out


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

    One loop over the two ends evaluates every seed's antiderivative from
    that end's sin, cos, tan and Delta; one loop over the orders runs both
    recursions (see the module docstring); one ``binomial_combination``
    serves both families.  ``alpha_p`` defaults to sqrt(1 - alpha^2).
    """
    _check_range(theta_lo, theta_hi)
    if alpha_p is None:
        alpha_p = math.sqrt((1.0 - alpha) * (1.0 + alpha))
    a2 = alpha * alpha
    ends = []
    for th in (theta_lo, theta_hi):
        s, c, t = math.sin(th), math.cos(th), math.tan(th)
        d = math.hypot(c, alpha_p * s)
        # p3, p2, p1, t1: antiderivatives of plain[-3], plain[-2], plain[-1], tan[-1]
        if alpha < ALPHA_ZERO:
            p3, p2, p1, t1 = s - s**3 / 3.0, 0.5 * (s * c + th), s, -c
        else:
            asin_m1 = _asin_ratio_m1(alpha * s, d)
            g = a2 * t / ((1.0 + alpha_p) * (1.0 + alpha_p * t * t))
            v = alpha * c + d
            lu = math.log(v) if v < 0.5 else math.log1p(alpha * c - a2 * s * s / (1.0 + d))
            p3 = s * (asin_m1 + a2 * (c * c + d) / ((1.0 + d) * d)) / a2
            p2 = th / (1.0 + alpha_p) + alpha_p * math.atan(g) / a2
            p1 = s * (1.0 + asin_m1)
            t1 = -lu / alpha
        ash = math.asinh(alpha_p * t)
        lc = ls = 0.0  # alpha = 0: see ElemTable
        if alpha != 0.0:
            w = 2.0 * (math.log(alpha * c) - math.log(d + alpha_p))
            lc = s * w + 2.0 * ash - 2.0 * alpha_p * p1
            ls = -c * w - 2.0 * alpha_p * t1
        ends.append(((p3, p2, p1, th, t1, -math.log(c), ash, lc, ls), d / c, t))
    (lo, p_lo, tp_lo), (hi, p_hi, tp_hi) = ends
    seeds = [b - a for a, b in zip(lo, hi)]
    plain, tan, (ash, lc, ls) = seeds[:4], seeds[4:6], seeds[6:]
    ap2 = alpha_p * alpha_p
    pn_lo = pn_hi = 1.0  # p^n; tp_* is p^(n-2) tan
    for n in range(1, n_max + 1):
        pn_lo *= p_lo
        pn_hi *= p_hi
        tan.append(a2 * tan[n - 1] + (pn_hi - pn_lo) / n)
        if n == 1:
            plain.append(a2 * plain[2] + alpha_p * ash)
            continue
        plain.append(
            (ap2 * (tp_hi - tp_lo) + (n - 2 + a2 * (n - 1)) * plain[n + 1] - a2 * (n - 2) * plain[n - 1])
            / (n - 1)
        )
        tp_lo *= p_lo
        tp_hi *= p_hi
    return ElemTable(plain, tan, lc, ls, binomial_combination(n_max, alpha, np.array(plain + tan)))
