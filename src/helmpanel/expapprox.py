"""Economized polynomial approximations of sin and cos on [0, dx).

The complex exponential exp(j k (R - |z|)) is replaced by a polynomial
sum_q e_q x^q with e_q = c_q + j s_q, where the c_q and s_q come from
Chebyshev economization of truncated Taylor series for cos and sin.  Each
component is built so that a rigorous bound on its uniform error over
[0, dx) -- Taylor remainder plus the sum of dropped Chebyshev coefficient
magnitudes -- stays below the requested tolerance; the combined complex
error is then at most sqrt(2) times that tolerance.

Approximations are tabulated for dx in {pi/16, pi/8, pi/4, pi/2} and
tolerances 1e-3 .. 1e-15; ``select_approx`` picks one per analytic
request, by the largest expansion argument k r_max it must cover.

Each table is built on first use, on plain Python floats: the Taylor
series is composed with x(u) = dx/2 (1 + u) by Horner's rule, converted to
Chebyshev coefficients by the recurrence x T_n = (T_(n-1) + T_(n+1))/2,
truncated, converted back, and composed with u(x) = 2x/dx - 1.  These are
the operations ``numpy.polynomial`` performs for the same steps, each
coefficient an elementwise or two-term sum in the same order, so the
tables are bit-identical to the ones an earlier version built with it
(frozen in ``tests/data/economize_frozen.json``), without its
per-object overhead or its import.  The Gauss-Legendre rules
(``numquad.gauss_rule``) and the oracle's interpolation tables
(``kronrod._interp_tables``) are built on floats too, so no helmpanel
process imports ``numpy.polynomial``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest

# The last tier is the element-size limit: the expansion covers k * r < pi/2.
DELTA_X_TIERS = (math.pi / 16, math.pi / 8, math.pi / 4, math.pi / 2)
DELTA_X_LABELS = ("pi/16", "pi/8", "pi/4", "pi/2")
EPS_TIERS = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)

# Fraction of the tolerance budget reserved for the Taylor seed remainder.
_TAYLOR_FRACTION = 0.1


@dataclass(frozen=True)
class ExpApprox:
    """Polynomial sum_q e_q x^q approximating e^{jx} = cos x + j sin x on [0, delta_x).

    ``coeffs`` holds e_q = c_q + j s_q as Python complex numbers: c_q is
    ``.real`` (the cos polynomial), s_q ``.imag`` (the sin polynomial).
    Entries are cached and shared, so the instance is frozen and holds
    only tuples.
    """

    delta_x: float
    eps: float
    coeffs: tuple[complex, ...]

    @property
    def q(self) -> int:
        """Expansion order, the degree of the polynomial."""
        return len(self.coeffs) - 1

    @cached_property
    def terms(self) -> tuple[tuple[float, ...], ...]:
        """Per order q, (c_q, s_q, q+1, 1/(q+2), (2q+3)/(q+2), (q+1)/(q+2), 1/(2(q+2))) as floats (built on first use).

        The real pair of e_q and the factors of ``analytic.k_terms``' terms
        and of its J step from order q to q + 1.
        """
        return tuple(
            (e.real, e.imag, q + 1.0, 1.0 / (q + 2), (2 * q + 3) / (q + 2), (q + 1) / (q + 2), 1.0 / (2 * (q + 2)))
            for q, e in enumerate(self.coeffs)
        )


# k = 0: the kernel is exactly 1/R, so the expansion is e = [1] at order 0.
LAPLACE = ExpApprox(delta_x=0.0, eps=0.0, coeffs=(1 + 0j,))


def taylor_sin_cos(q: int) -> tuple[list[float], list[float]]:
    """Maclaurin coefficients of cos and sin up to degree q."""
    if q < 0:
        raise ValueError("degree must be non-negative")
    cos_c = [0.0] * (q + 1)
    sin_c = [0.0] * (q + 1)
    for m in range(q + 1):
        term = (-1.0) ** (m // 2) / math.factorial(m)
        if m % 2 == 0:
            cos_c[m] = term
        else:
            sin_c[m] = term
    return cos_c, sin_c


def taylor_degree_for(delta_x: float, eps: float) -> int:
    """Smallest degree whose Taylor remainder bound is below eps/10.

    The remainder of either series truncated at degree n is bounded by
    delta_x^(n+1) / (n+1)! on [0, delta_x).  A delta_x outside (0, pi/2]
    or an eps outside [1e-15, 1e-3], the range ``economize`` tabulates,
    is a ValueError.
    """
    if not (0.0 < delta_x <= DELTA_X_TIERS[-1] + 1e-15):  # written so that a NaN fails it
        raise ValueError(f"delta_x must lie in (0, {DELTA_X_LABELS[-1]}]")
    if not 1e-15 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-15, 1e-3]")
    n = 0
    while delta_x ** (n + 1) / math.factorial(n + 1) > eps * _TAYLOR_FRACTION:
        n += 1
    return n


def _compose(coeffs: list[float], a: float, b: float) -> list[float]:
    """Monomial coefficients of p(a + b t), p(x) = sum_i coeffs[i] x^i (Horner)."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = [out[0] * a + c] + [lo * b + hi * a for lo, hi in zip(out, out[1:])] + [out[-1] * b]
    return out


def _poly2cheb(p: list[float]) -> list[float]:
    """Chebyshev coefficients of sum_i p[i] u^i (Horner with x T_n = (T_(n-1) + T_(n+1))/2)."""
    res = [p[-1]]
    for c in reversed(p[:-1]):
        half = [v / 2 for v in res] + [0.0, 0.0]
        res = [half[1] + c, res[0] + half[2]] + [lo + hi for lo, hi in zip(half[1:], half[3:])]
    return res


def _cheb2poly(c: list[float]) -> list[float]:
    """Monomial coefficients of sum_n c[n] T_n(u) (Clenshaw's recurrence, T_(n+1) = 2u T_n - T_(n-1))."""
    if len(c) < 3:
        return c
    c0, c1 = [c[-2]], [c[-1]]
    for i in range(len(c) - 1, 1, -1):
        c0, c1 = [c[i - 2] - c1[0]] + [-v for v in c1[1:]], _add(c0, [0.0] + [2 * v for v in c1])
    return _add(c0, [0.0] + c1)


def _add(a: list[float], b: list[float]) -> list[float]:
    """Sum of two coefficient lists, ``b`` the longer."""
    return [x + y for x, y in zip(a, b)] + b[len(a) :]


def _economize_component(coeffs: list[float], delta_x: float, budget: float) -> list[float]:
    """Drop trailing Chebyshev terms of a polynomial on [0, delta_x).

    ``budget`` is the allowed sum of dropped coefficient magnitudes, a
    rigorous bound on the uniform perturbation.  Returns monomial
    coefficients of the reduced polynomial.
    """
    while len(coeffs) > 1 and coeffs[-1] == 0.0:  # cos of odd, sin of even degree ends in 0
        coeffs = coeffs[:-1]
    ch = _poly2cheb(_compose(coeffs, delta_x / 2.0, delta_x / 2.0))  # x(u), u in [-1, 1]
    degree = len(ch) - 1
    dropped = 0.0
    while degree > 0 and dropped + abs(ch[degree]) <= budget:
        dropped += abs(ch[degree])
        degree -= 1
    return _compose(_cheb2poly(ch[: degree + 1]), -1.0, 2.0 / delta_x)  # u(x)


@lru_cache(maxsize=64)
def economize(delta_x: float, eps: float) -> ExpApprox:
    """Economized (cos, sin) polynomial pair on [0, delta_x) at tolerance eps.

    Each component carries a rigorous uniform error bound <= eps; the
    economized degree never exceeds the Taylor degree for the same eps.
    ``taylor_degree_for`` rejects a delta_x or eps outside the tabulated range.
    """
    n = taylor_degree_for(delta_x, eps)
    cos_c, sin_c = taylor_sin_cos(n)
    taylor_bound = delta_x ** (n + 1) / math.factorial(n + 1)
    budget = eps - taylor_bound
    pc = _economize_component(cos_c, delta_x, budget)
    ps = _economize_component(sin_c, delta_x, budget)
    coeffs = tuple(complex(c, s) for c, s in zip_longest(pc, ps, fillvalue=0.0))
    return ExpApprox(delta_x=delta_x, eps=eps, coeffs=coeffs)


_EPS_ASCENDING = EPS_TIERS[::-1]  # for the bisection of select_approx


def select_approx(k: float, ell: float, eps: float) -> ExpApprox:
    """Table entry covering expansion arguments up to k * ell; ``LAPLACE`` at k = 0.

    Picks the smallest delta_x tier strictly greater than k * ell and the
    coarsest tabulated tolerance not exceeding eps, by one bisection each,
    from ``economize``'s cache.  k * ell >= pi/2 (the last tier) violates
    the standing element-size assumption and is rejected, as is a k, an
    ell or a k * ell that is negative or NaN, or a NaN eps, at k = 0 too.
    """
    x_need = k * ell
    if not (k >= 0.0 and ell >= 0.0 and x_need >= 0.0):  # written so that a NaN fails it
        raise ValueError(f"k*ell = {x_need:g} (k = {k:g}, ell = {ell:g}): negative or not a number")
    if x_need >= DELTA_X_TIERS[-1]:
        raise ValueError(
            f"k*ell = {x_need:.6g} >= {DELTA_X_LABELS[-1]}: element too large for the "
            f"expansion (the method assumes k * edge < {DELTA_X_LABELS[-1]})"
        )
    if not eps >= EPS_TIERS[-1]:
        raise ValueError(f"eps = {eps:g} is below the achievable tier {EPS_TIERS[-1]:g} or not a number")
    if k == 0.0:
        return LAPLACE
    delta_x = DELTA_X_TIERS[bisect_right(DELTA_X_TIERS, x_need)]
    return economize(delta_x, _EPS_ASCENDING[bisect_right(_EPS_ASCENDING, eps) - 1])
