"""Elementary trigonometric integrals over a reference-triangle angle range.

Everything here is a definite integral over [theta_lo, theta_hi], a range
strictly inside (-pi/2, pi/2), written in terms of

    Delta^2 = 1 - alpha^2 sin^2(theta),    p = Delta / cos(theta),

with 0 <= alpha <= 1 and alpha' = sqrt(1 - alpha^2).  The expansion terms
read six rows of integrals of powers of u = p - alpha,

    P_s[n] = integral u^n p^(-s) dtheta,           s = 0 .. 3,
    T_s[n] = integral u^n p^(-s) tan dtheta,       s = 0, 1,

at the orders n = 1 .. N, from the seeds plain[n] = integral p^n dtheta,
n = -3 .. 0, tan[n] = integral p^n tan dtheta, n = -1, 0 (the rows at
n = 0), and the logarithmic integrals L_c and L_s.  Expansion term q
reads the rows at order q + 1 (``analytic.k_terms``, which leaves their
factor (kS)^q to the coefficients).

Seeds.  plain[-3 .. 0], tan[-1], tan[0], L_c, L_s and
[asinh(alpha' tan)] are closed-form antiderivatives, evaluated at
each end into one tuple and differenced (plain[0] = theta_hi -
theta_lo directly).  Delta is hypot(cos, alpha' sin), with alpha'
passed in: when alpha = |z|/S rounds to 1 just above an edge's line,
alpha' = s/S still holds its digits.  No form cancels, at either limit of
alpha:

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

Orders.  One loop over the orders (``binomial_combination``) runs all six
rows upward on endpoint differences [f] = f(theta_hi) - f(theta_lo), in
O(N) float steps, with the powers of u at each end kept as running
products, so no order calls ``pow``, and the factors of the P_1 step
cached per N (``_steps``).  At each end u is taken as
alpha'^2 / (cos (Delta + alpha cos)), which does not cancel.  From
dp/dtheta = tan (p^2 - alpha^2) / p and p^2 - alpha^2 = u (u + 2 alpha):

- d(u^n)/dtheta = n u^n tan (1 + alpha/p), so that
      T_0[n] = [u^n] / n - alpha T_1[n];
- u/p = 1 - alpha/p gives the shift identity
      X_s[n] = X_(s-1)[n-1] - alpha X_s[n-1],
  for T_1 and for P_2, P_3, and read the other way, with u = p - alpha,
      P_0[n] = P_1[n+1] + alpha P_1[n];
- d(u^m tan)/dtheta, with sec^2 = u (u + 2 alpha) / alpha'^2, gives
      (m+1) P_1[m+3] = alpha'^2 [u^m tan] - (4m+3) alpha P_1[m+2]
                       - ((4m+2) alpha^2 - m alpha'^2) P_1[m+1]
                       + 2 m alpha alpha'^2 P_1[m],
  from P_1[0] = plain[-1], P_1[1] = plain[0] - alpha plain[-1] and
  P_1[2] = [alpha' asinh(alpha' tan)] + 2 alpha^2 plain[-1] - 2 alpha plain[0].
  At alpha = 0 it is the reduction formula for the integral of sec^n.

Why upward.  The P_1 recursion's homogeneous solutions grow like
(1 - alpha)^m, (-2 alpha)^m and (-1 - alpha)^m (its characteristic
polynomial is (x + 2 alpha)(x^2 + 2 alpha x - alpha'^2)), so an upward
run amplifies a rounding error by up to (1 + alpha)^m; the other rows'
steps amplify by alpha^m or (2 alpha)^m at most.  Where u stays below
1 + alpha over the range, the wanted row is subdominant and loses digits
relative to its own value, as upward runs do (Gautschi, "Computational
aspects of three-term recurrence relations", SIAM Review 9, 1967).  But
since p >= 1 the scale, the integral of (p + alpha)^n p^(-s) [|tan|],
grows at least as (1 + alpha)^n: every row stays within a few eps of its
scale, which is the rounding the binomial sum over the powers of p that
it equals carries, and all the expansion terms need.  A downward run
would need starting values at the top order, which have no closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

# alpha below which the in-plane (alpha = 0) closed forms are used.
ALPHA_ZERO = 1e-8
# Angle ranges must lie strictly inside (-THETA_MAX, THETA_MAX).
THETA_MAX = math.pi / 2 - 1e-12


@functools.lru_cache(maxsize=32)
def _steps(n_max: int) -> tuple[tuple[float, float, float, float, float], ...]:
    """n, 4n - 1, 4n - 2, n - 1 and 2n - 2 as floats, n = 1 .. n_max: the P_1 step's factors at m = n - 1."""
    return tuple((float(n), 4.0 * n - 1.0, 4.0 * n - 2.0, n - 1.0, 2.0 * n - 2.0) for n in range(1, n_max + 1))


def binomial_combination(
    n_max: int, alpha: float, alpha_p: float, plain: list[float], tan: list[float], ash: float, ends
) -> list[tuple[float, ...]]:
    """The six rows integral (p - alpha)^n p^(-s) [tan] dtheta, n = 1 .. n_max.

    These are the binomial combinations of the powers of p that the name
    keeps; one loop over the orders computes them by the O(n_max)
    recursions of the module docstring, on floats, from the seeds:
    ``plain`` is plain[-3 .. 0], ``tan`` is tan[-1 .. 0], ``ash`` is
    [asinh(alpha' tan)] and ``ends`` holds (u, tan theta) at theta_lo,
    then at theta_hi.  Entry n - 1 is the tuple (P_0, P_1, P_2, P_3, T_0,
    T_1) at order n.
    """
    p3, p2, p1, theta = plain
    t1, t0 = tan
    (u_lo, w_lo), (u_hi, w_hi) = ends  # w: u^(n-1) tan at each end
    a2, ap2 = alpha * alpha, alpha_p * alpha_p
    aap2 = alpha * ap2
    # P_1[n - 1], P_1[n], P_1[n + 1]
    r0, r1, r2 = p1, theta - alpha * p1, alpha_p * ash + 2.0 * (a2 * p1 - alpha * theta)
    rows = []
    un_lo = un_hi = 1.0  # u^n
    for n, c3, c2, m, m2 in _steps(n_max):
        un_lo *= u_lo
        un_hi *= u_hi
        p3 = p2 - alpha * p3
        p2 = r0 - alpha * p2
        t1 = t0 - alpha * t1
        t0 = (un_hi - un_lo) / n - alpha * t1
        rows.append((r2 + alpha * r1, r1, p2, p3, t0, t1))
        # P_1[n + 2] by the step at m = n - 1 (one past the last order is unused)
        r0, r1, r2 = r1, r2, (ap2 * (w_hi - w_lo) - c3 * alpha * r2 - (c2 * a2 - m * ap2) * r1 + m2 * aap2 * r0) / n
        w_lo *= u_lo
        w_hi *= u_hi
    return rows


@dataclass(slots=True)
class ElemTable:
    """Elementary integrals for one (alpha, angle-range) pair, as Python floats.

    ``plain`` holds plain[n] at [n + 3], n = -3 .. 0, and ``tan`` holds
    tan[n] at [n + 1], n = -1, 0: the rows at order 0.  ``rows[q]`` is the
    tuple (P_0, P_1, P_2, P_3, T_0, T_1) at order q + 1, the order that
    expansion term q reads, q = 0 .. n_max - 1 (``binomial_combination``).
    ``lc`` and ``ls`` are the definite integrals of cos and sin times
    log[(Delta - alpha')/(Delta + alpha')].  L_c diverges logarithmically as
    alpha -> 0; callers only ever use it multiplied by |z| = alpha * S, so
    at alpha = 0 exactly both are stored as zero by that convention.
    """

    plain: list[float]
    tan: list[float]
    lc: float
    ls: float
    rows: list[tuple[float, ...]]


def build_table(
    alpha: float,
    theta_lo: float,
    theta_hi: float,
    n_max: int,
    alpha_p: float | None = None,
) -> ElemTable:
    """Build all elementary integrals needed for expansion order n_max - 1.

    One loop over the two ends evaluates every seed's antiderivative but
    plain[0]'s, u and tan theta from that end's sin, cos, tan and Delta, as
    one tuple per end; the seeds are the differences of the two tuples, and
    plain[0] is theta_hi - theta_lo.  One ``binomial_combination`` runs the
    rows to order n_max (see the module docstring).  ``alpha_p`` defaults
    to sqrt(1 - alpha^2); a range not inside (-THETA_MAX, THETA_MAX) is a
    ValueError.
    """
    if not -THETA_MAX < theta_lo <= theta_hi < THETA_MAX:
        raise ValueError(f"angle range [{theta_lo}, {theta_hi}] must lie strictly inside (-pi/2, pi/2)")
    if alpha_p is None:
        alpha_p = math.sqrt((1.0 - alpha) * (1.0 + alpha))
    a2 = alpha * alpha
    ap2 = alpha_p * alpha_p
    ends = []
    for th in (theta_lo, theta_hi):
        s, c, t = math.sin(th), math.cos(th), math.tan(th)
        d = math.hypot(c, alpha_p * s)
        # p3, p2, p1, t1: antiderivatives of plain[-3], plain[-2], plain[-1], tan[-1]
        if alpha < ALPHA_ZERO:
            p3, p2, p1, t1 = s - s**3 / 3.0, 0.5 * (s * c + th), s, -c
        else:
            # asin_m1 = (asin(x) - x) / x at x = alpha sin; near 0 by its series
            # sum_m C(2m, m) / (4^m (2m+1)) x^2m, m = 1 .. 7 (error O(x^16)), since the
            # direct difference leaves an O(eps) absolute error that p3 divides by alpha^2
            x = alpha * s
            if abs(x) < 0.1:
                x2 = x * x
                asin_m1 = x2 * (1.0 / 6.0 + x2 * (3.0 / 40.0 + x2 * (15.0 / 336.0 + x2 * (105.0 / 3456.0 + x2 * (
                    945.0 / 42240.0 + x2 * (10395.0 / 599040.0 + x2 * (135135.0 / 9676800.0)))))))
            else:
                asin_m1 = (math.atan2(x, d) - x) / x
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
        ends.append((p3, p2, p1, t1, -math.log(c), ash, lc, ls, ap2 / (c * (d + alpha * c)), t))
    (p3, p2, p1, t1, t0, ash, lc, ls, u_lo, w_lo), (p3h, p2h, p1h, t1h, t0h, ashh, lch, lsh, u_hi, w_hi) = ends
    plain, tan = [p3h - p3, p2h - p2, p1h - p1, theta_hi - theta_lo], [t1h - t1, t0h - t0]
    rows = binomial_combination(n_max, alpha, alpha_p, plain, tan, ashh - ash, ((u_lo, w_lo), (u_hi, w_hi)))
    return ElemTable(plain, tan, lch - lc, lsh - ls, rows)
