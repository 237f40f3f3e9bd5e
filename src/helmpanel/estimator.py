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
from dataclasses import dataclass

import numpy as np

from .geometry import RadialExtents

# Largest polynomial order handled by quadrature before switching to the
# analytic path; 32 corresponds to the 16-point-rule regime studied in the
# error-analysis test cases.
Q_CAP = 32


def _reduced(r_min: float, r_max: float, z: float) -> tuple[float, float, float, float, float]:
    """(r_mid, R_mid, cos_phi, sin_phi, t) from the radial extents and z."""
    r_mid = 0.5 * r_max
    R_mid = math.hypot(r_mid, z)
    # t = 1 when the projection lies on the element, negative when the
    # nearest point is beyond the radial midpoint (r_min > r_mid); the
    # magnitude bound uses |t|, so the sign only feeds the denominator.
    # Clamping covers rounding: r_min <= r_max keeps t >= -1 anyway.
    t = (r_mid - r_min) / r_mid if r_mid > 0.0 else 0.0
    return r_mid, R_mid, r_mid / R_mid, abs(z) / R_mid, min(1.0, max(-1.0, t))


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
        return cls(*_reduced(extents.r_min, extents.r_max, z))


def _check_phi(sin_phi: float) -> None:
    if sin_phi == 0.0:
        raise ValueError(
            "phi = 0 (field point in the element plane): 1/R is constant "
            "along r and the estimate does not apply"
        )


def _e_q_factors(R_mid: float, cos_phi: float, sin_phi: float, t: float) -> tuple[float, float, float, float]:
    """The order-independent factors of E_Q: (lead, |t|, cos_phi, denom)."""
    _check_phi(sin_phi)
    denom = math.sqrt((1.0 - t) ** 2 * cos_phi**2 + sin_phi**2)
    lead = (1.0 / R_mid) * math.sqrt(2.0 / (math.pi * sin_phi))
    return lead, abs(t), cos_phi, denom


def _e_q(q: int, lead: float, abs_t: float, cos_phi: float, denom: float) -> float:
    """E_Q from its order-independent factors (``_e_q_factors``)."""
    return lead * abs_t ** (q + 1) / math.sqrt(q + 1) * cos_phi ** (q + 1) / denom


def e_q_bound(geom: EstimatorGeom, q: int) -> float:
    """Magnitude bound E_Q on the truncation remainder of 1/R; q must be an integer >= 0."""
    if isinstance(q, bool) or not (isinstance(q, (int, np.integer)) and q >= 0):
        raise ValueError(f"q must be an integer >= 0, got {q!r}")
    return _e_q(int(q), *_e_q_factors(geom.R_mid, geom.cos_phi, geom.sin_phi, geom.t))


@dataclass(slots=True)
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
    None.  z = 0 demands the analytic path too.  With r_min = 0 the
    integral is singular and no finite order works.  With r_min > 0 the
    radial integrand r/R is constant, but the signed subtriangles about an
    exterior projection are each near-singular in the angle and cancel
    only in exact arithmetic, a difficulty the 1/R model does not size
    (its E_Q has no value at phi = 0).

    For z != 0, |t| cos(phi) < 1, so E_Q does not increase with Q: each
    step multiplies it by at most sqrt((Q + 1) / (Q + 2)), a fall far above
    rounding.  So one E_Q at q_cap decides whether any order works, and
    bisection finds the smallest.  A tol not > 0, a z not finite,
    extents outside 0 <= r_min <= r_max < inf or a q_cap that is not an
    integer (Python or NumPy; a bool is not) are a ValueError; a q_cap < 1 requires the
    analytic path.
    """
    if not (tol > 0.0 and math.isfinite(z) and 0.0 <= extents.r_min <= extents.r_max < math.inf):
        raise ValueError("need tol > 0, a finite z and extents 0 <= r_min <= r_max < inf")
    if isinstance(q_cap, bool) or not isinstance(q_cap, (int, np.integer)):
        raise ValueError(f"q_cap must be an int, got {q_cap!r}")
    if z == 0.0:
        return OrderSelection()
    _, R_mid, cos_phi, sin_phi, t = _reduced(extents.r_min, extents.r_max, z)
    lead, abs_t, cos_phi, denom = _e_q_factors(R_mid, cos_phi, sin_phi, t)
    lo, hi = 1, int(q_cap)
    if hi < lo or (e_hi := _e_q(hi, lead, abs_t, cos_phi, denom)) > tol:
        return OrderSelection()
    # invariant: E_hi <= tol, and E_Q > tol for every Q < lo
    while lo < hi:
        mid = (lo + hi) // 2
        e_mid = _e_q(mid, lead, abs_t, cos_phi, denom)
        if e_mid <= tol:
            hi, e_hi = mid, e_mid
        else:
            lo = mid + 1
    return OrderSelection(hi, e_hi)
