"""Economized polynomial approximations of sin and cos on [0, dx).

The complex exponential exp(j k (R - |z|)) is replaced by a polynomial
sum_q e_q x^q with e_q = c_q + j s_q, where the c_q and s_q come from
Chebyshev economization of truncated Taylor series for cos and sin.  Each
component is built so that a rigorous bound on its uniform error over
[0, dx) -- Taylor remainder plus the sum of dropped Chebyshev coefficient
magnitudes -- stays below the requested tolerance; the combined complex
error is then at most sqrt(2) times that tolerance.

Approximations are tabulated for dx in {pi/16, pi/8, pi/4, pi/2} and
tolerances 1e-3 .. 1e-15, and selected by the largest expansion argument
they must cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev as _cheb

DELTA_X_TIERS = (math.pi / 16, math.pi / 8, math.pi / 4, math.pi / 2)
DELTA_X_LABELS = ("pi/16", "pi/8", "pi/4", "pi/2")
EPS_TIERS = (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)

# Fraction of the tolerance budget reserved for the Taylor seed remainder.
_TAYLOR_FRACTION = 0.1


@dataclass
class ExpApprox:
    """Polynomial pair approximating (cos x, sin x) on [0, delta_x)."""

    delta_x: float
    eps: float
    q: int
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Complex coefficients e_q = c_q + j s_q (computed on first use)."""
        return self.cos_coeffs + 1j * self.sin_coeffs


def taylor_sin_cos(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Maclaurin coefficients of cos and sin up to degree q."""
    if q < 0:
        raise ValueError("degree must be non-negative")
    cos_c = np.zeros(q + 1)
    sin_c = np.zeros(q + 1)
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
    delta_x^(n+1) / (n+1)! on [0, delta_x).
    """
    n = 0
    while delta_x ** (n + 1) / math.factorial(n + 1) > eps * _TAYLOR_FRACTION:
        n += 1
        if n > 200:
            raise ValueError("tolerance unattainable")
    return n


def _economize_component(coeffs: np.ndarray, delta_x: float, budget: float) -> np.ndarray:
    """Drop trailing Chebyshev terms of a polynomial on [0, delta_x).

    ``budget`` is the allowed sum of dropped coefficient magnitudes, a
    rigorous bound on the uniform perturbation.  Returns monomial
    coefficients of the reduced polynomial.
    """
    # map x in [0, dx] to u in [-1, 1]
    to_u = Polynomial([delta_x / 2.0, delta_x / 2.0])  # x(u)
    p_u = Polynomial(coeffs)(to_u)
    ch = _cheb.poly2cheb(p_u.coef)
    degree = len(ch) - 1
    dropped = 0.0
    while degree > 0 and dropped + abs(ch[degree]) <= budget:
        dropped += abs(ch[degree])
        degree -= 1
    kept = _cheb.cheb2poly(ch[: degree + 1])
    from_x = Polynomial([-1.0, 2.0 / delta_x])  # u(x)
    p_x = Polynomial(kept)(from_x)
    return p_x.coef


@lru_cache(maxsize=64)
def economize(delta_x: float, eps: float) -> ExpApprox:
    """Economized (cos, sin) polynomial pair on [0, delta_x) at tolerance eps.

    Each component carries a rigorous uniform error bound <= eps; the
    economized degree never exceeds the Taylor degree for the same eps.
    """
    if not (0.0 < delta_x <= math.pi / 2 + 1e-15):
        raise ValueError("delta_x must lie in (0, pi/2]")
    if eps < 1e-15 or eps > 1e-3:
        raise ValueError("eps must lie in [1e-15, 1e-3]")
    n = taylor_degree_for(delta_x, eps)
    cos_c, sin_c = taylor_sin_cos(n)
    taylor_bound = delta_x ** (n + 1) / math.factorial(n + 1)
    budget = eps - taylor_bound
    pc = _economize_component(cos_c, delta_x, budget)
    ps = _economize_component(sin_c, delta_x, budget)
    q = max(len(pc), len(ps)) - 1
    cos_out = np.zeros(q + 1)
    sin_out = np.zeros(q + 1)
    cos_out[: len(pc)] = pc
    sin_out[: len(ps)] = ps
    return ExpApprox(delta_x=delta_x, eps=eps, q=q, cos_coeffs=cos_out, sin_coeffs=sin_out)


def select_approx(k: float, ell: float, eps: float) -> ExpApprox:
    """Table entry covering expansion arguments up to k * ell.

    Picks the smallest delta_x tier strictly greater than k * ell and the
    coarsest tabulated tolerance not exceeding eps.  k * ell >= pi/2
    violates the standing element-size assumption and is rejected.
    """
    x_need = k * ell
    if x_need >= math.pi / 2:
        raise ValueError(
            f"k*ell = {x_need:.6g} >= pi/2: element too large for the "
            "expansion (the method assumes k * edge < pi/2)"
        )
    if eps < EPS_TIERS[-1]:
        raise ValueError(f"eps = {eps:g} below the achievable tier {EPS_TIERS[-1]:g}")
    eps_tier = max((e for e in EPS_TIERS if e <= eps), default=None)
    if eps_tier is None:
        eps_tier = EPS_TIERS[0]
    for dx in DELTA_X_TIERS:
        if dx > x_need:
            return economize(dx, eps_tier)
    # unreachable: pi/2 > x_need guaranteed above
    raise AssertionError("no delta_x tier covers the requested range")


def table_rows():
    """All (delta_x, eps, Q, q, c_q, s_q) rows of the coefficient table."""
    rows = []
    for dx, label in zip(DELTA_X_TIERS, DELTA_X_LABELS):
        for eps in EPS_TIERS:
            ap = economize(dx, eps)
            for q in range(ap.q + 1):
                rows.append((label, dx, eps, ap.q, q, ap.cos_coeffs[q], ap.sin_coeffs[q]))
    return rows
