"""A-priori error estimate for polar Gaussian quadrature of 1/R.

The radial integrand 1/R over a triangle viewed from the projected field
point is expanded in Legendre polynomials through the generating function,

    1/R = (1/R_mid) sum_q (t cos(phi))^q P_q(cos(phi)),

with r = r_mid (1 - t), r_mid = r_max / 2, R_mid^2 = r_mid^2 + z^2 and
cos(phi) = r_mid / R_mid.  Truncating at order Q leaves a remainder whose
large-order asymptotics give a signed estimate epsilon_Q and a magnitude
bound E_Q computable from (r_min, r_max, z) alone.  The smallest Q with
E_Q below tolerance sets the Gaussian quadrature order; when no Q up to
Q_CAP suffices the analytic evaluation is required instead.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .geometry import RadialExtents

# Largest polynomial order handled by quadrature before switching to the
# analytic path; 32 corresponds to the 16-point-rule regime studied in the
# error-analysis test cases.
Q_CAP = 32


@dataclass
class EstimatorGeom:
    """Reduced geometry feeding the 1/R error estimate."""

    r_mid: float
    R_mid: float
    cos_phi: float
    sin_phi: float
    t: float

    @classmethod
    def from_extents(cls, extents: RadialExtents, z: float) -> "EstimatorGeom":
        r_mid = 0.5 * extents.r_max
        R_mid = math.hypot(r_mid, z)
        # t = 1 when the projection lies on the element, negative when the
        # nearest point is beyond the radial midpoint (r_min > r_mid); the
        # magnitude bound uses |t|, so the sign only feeds the denominator.
        # Clamping covers rounding: r_min <= r_max keeps t >= -1 anyway.
        t = (r_mid - extents.r_min) / r_mid if r_mid > 0.0 else 0.0
        t = min(1.0, max(-1.0, t))
        return cls(
            r_mid=r_mid,
            R_mid=R_mid,
            cos_phi=r_mid / R_mid,
            sin_phi=abs(z) / R_mid,
            t=t,
        )


def _check_phi(geom: EstimatorGeom) -> None:
    if geom.sin_phi == 0.0:
        raise ValueError(
            "phi = 0 (field point in the element plane): 1/R is constant "
            "along r and the estimate does not apply"
        )


def _e_q_of(geom: EstimatorGeom) -> Callable[[int], float]:
    """E_Q as a function of Q, with the order-independent factors computed once."""
    _check_phi(geom)
    t = geom.t
    denom = math.sqrt((1.0 - t) ** 2 * geom.cos_phi**2 + geom.sin_phi**2)
    lead = (1.0 / geom.R_mid) * math.sqrt(2.0 / (math.pi * geom.sin_phi))
    abs_t, cos_phi = abs(t), geom.cos_phi
    return lambda q: lead * abs_t ** (q + 1) / math.sqrt(q + 1) * cos_phi ** (q + 1) / denom


def e_q_bound(geom: EstimatorGeom, q: int) -> float:
    """Magnitude bound E_Q on the truncation remainder of 1/R."""
    return _e_q_of(geom)(q)


@dataclass
class OrderSelection:
    """Outcome of the quadrature-order criterion (``q`` None: analytic required)."""

    q: int | None = None
    e_q: float | None = None

    @property
    def analytic_required(self) -> bool:
        return self.q is None

    @property
    def n_gauss(self) -> int | None:
        """Gauss points per direction, ceil((Q+1)/2), exact through degree Q."""
        return None if self.q is None else (self.q + 2) // 2


def select_order(extents: RadialExtents, z: float, tol: float, q_cap: int = Q_CAP) -> OrderSelection:
    """Pick the Gaussian order for 1/R or demand the analytic path.

    Returns the smallest Q <= q_cap with E_Q <= tol together with that E_Q;
    when no such Q exists the analytic evaluation is required and ``q`` is
    None.  z = 0 is special: with r_min > 0 the radial integrand r/R is
    constant so Q = 1; with r_min = 0 the integral is singular and no
    finite order works.

    For z != 0, |t| cos(phi) < 1, so E_Q does not increase with Q: each
    step multiplies it by at most sqrt((Q + 1) / (Q + 2)), a fall far above
    rounding.  So one E_Q at q_cap decides whether any order works, and
    bisection finds the smallest.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if z == 0.0:
        return OrderSelection(1, 0.0) if extents.r_min > 0.0 else OrderSelection()
    e_q_of = _e_q_of(EstimatorGeom.from_extents(extents, z))
    lo, hi = 1, q_cap
    if hi < lo or (e_hi := e_q_of(hi)) > tol:
        return OrderSelection()
    # invariant: E_hi <= tol, and E_Q > tol for every Q < lo
    while lo < hi:
        mid = (lo + hi) // 2
        e_mid = e_q_of(mid)
        if e_mid <= tol:
            hi, e_hi = mid, e_mid
        else:
            lo = mid + 1
    return OrderSelection(hi, e_hi)
