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

from .geometry import RadialExtents, integer, positive, real_number

# Largest polynomial order handled by quadrature before switching to the
# analytic path; 32 corresponds to the 16-point-rule regime studied in the
# error-analysis test cases.
Q_CAP = 32


def _reduced(extents: RadialExtents, z) -> tuple[float, float, float, float, float]:
    """(r_mid, R_mid, cos_phi, sin_phi, t) from the extents and z, each read by ``geometry.real_number``;
    a ValueError, its message starting with the name it refuses, unless 0 < r_max < inf,
    0 <= r_min <= r_max and z is finite (checked in that order)."""
    r_min = real_number(extents.r_min, "r_min")
    r_max = real_number(extents.r_max, "r_max")
    z = real_number(z, "z")
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max = {r_max!r} must be finite and > 0")
    if not 0.0 <= r_min <= r_max:
        raise ValueError(f"r_min = {r_min!r} must lie in [0, r_max = {r_max!r}]")
    if not math.isfinite(z):
        raise ValueError(f"z = {z!r} must be finite")
    r_mid = 0.5 * r_max
    R_mid = math.hypot(r_mid, z)
    # t = 1 when the projection lies on the element, negative when the
    # nearest point is beyond the radial midpoint (r_min > r_mid); the
    # magnitude bound uses |t|, so the sign only feeds the denominator.
    # Clamping covers rounding: r_min <= r_max keeps t >= -1 but for a
    # subnormal r_max, whose half rounds.
    t = (r_mid - r_min) / r_mid if r_mid > 0.0 else 0.0
    # R_mid is 0 only at z = 0 with an r_max whose half rounds to 0: phi = 0
    cos_phi, sin_phi = (r_mid / R_mid, abs(z) / R_mid) if R_mid > 0.0 else (1.0, 0.0)
    return r_mid, R_mid, cos_phi, sin_phi, min(1.0, max(-1.0, t))


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
        """The reduced geometry at height z; a ValueError for the extents and z ``select_order`` rejects."""
        return cls(*_reduced(extents, z))


def _check_phi(sin_phi: float) -> None:
    if sin_phi == 0.0:
        raise ValueError(
            "phi = 0 (field point in the element plane): 1/R is constant "
            "along r and the estimate does not apply"
        )


def _e_q_factors(R_mid: float, cos_phi: float, sin_phi: float, t: float) -> tuple[float, float, float, float, float]:
    """The order-independent factors of E_Q: (lead, |t|, cos_phi, denom, R_mid)."""
    _check_phi(sin_phi)
    denom = math.hypot((1.0 - t) * cos_phi, sin_phi)  # no square under- or overflows
    lead = math.sqrt(2.0 / math.pi) / math.sqrt(sin_phi)  # finite for a subnormal sin_phi
    return lead, abs(t), cos_phi, denom, R_mid


def _e_q(q: int, lead: float, abs_t: float, cos_phi: float, denom: float, R_mid: float) -> float:
    """E_Q from its order-independent factors (``_e_q_factors``).

    R_mid, which is not 0 where sin_phi is not, divides last: a |t| of 0
    gives 0 however small R_mid is, where 1 / R_mid first would give inf 0.
    """
    return lead * abs_t ** (q + 1) / math.sqrt(q + 1) * cos_phi ** (q + 1) / denom / R_mid


def e_q_bound(geom: EstimatorGeom, q: int) -> float:
    """Magnitude bound E_Q on the truncation remainder of 1/R; q must be an integer >= 0 (``geometry.integer``)."""
    return _e_q(integer(q, "q", 0), *_e_q_factors(geom.R_mid, geom.cos_phi, geom.sin_phi, geom.t))


@dataclass(frozen=True, slots=True)
class OrderSelection:
    """Outcome of the quadrature-order criterion (``q`` None: analytic required,
    one shared instance, ``ANALYTIC_REQUIRED``)."""

    q: int | None = None
    e_q: float | None = None

    @property
    def analytic_required(self) -> bool:
        return self.q is None

    @property
    def n_gauss(self) -> int | None:
        """Gauss points per direction, ceil((Q+1)/2), exact through degree Q."""
        return None if self.q is None else (self.q + 2) // 2


ANALYTIC_REQUIRED = OrderSelection()


def select_order(extents: RadialExtents, z: float, tol: float, q_cap: int = Q_CAP) -> OrderSelection:
    """Pick the Gaussian order for 1/R or demand the analytic path.

    Returns the smallest Q <= q_cap with E_Q <= tol together with that E_Q;
    when no such Q exists the analytic evaluation is required and ``q`` is
    None.  z = 0 demands the analytic path too, as does a |z| so far below
    r_max that sin(phi) rounds to 0.  With r_min = 0 the
    integral is singular and no finite order works.  With r_min > 0 the
    radial integrand r/R is constant, but the signed subtriangles about an
    exterior projection are each near-singular in the angle and cancel
    only in exact arithmetic, a difficulty the 1/R model does not size
    (its E_Q has no value at phi = 0).

    For z != 0, |t| cos(phi) < 1, so E_Q does not increase with Q: each
    step multiplies it by at most sqrt((Q + 1) / (Q + 2)), a fall far above
    rounding.  So one E_Q at q_cap decides whether any order works, and
    bisection finds the smallest.  A tol that ``geometry.positive``
    rejects, a q_cap that ``geometry.integer`` rejects, an r_min, r_max or
    z that ``geometry.real_number`` rejects, a z not finite, extents
    outside 0 <= r_min <= r_max < inf or an r_max of 0 (no triangle has
    one) are a ValueError whose message starts with the name it refuses
    (``q_cap``, ``tol``, ``r_max``, ``r_min`` or ``z``); a q_cap < 1
    requires the analytic path.
    """
    tol = positive(tol, "tol")
    q_cap = integer(q_cap, "q_cap")
    _, R_mid, cos_phi, sin_phi, t = _reduced(extents, z)
    if sin_phi == 0.0:  # z = 0, or |z| too far below r_max for sin(phi) to be a float
        return ANALYTIC_REQUIRED
    lead, abs_t, cos_phi, denom, R_mid = _e_q_factors(R_mid, cos_phi, sin_phi, t)
    lo, hi = 1, q_cap
    if hi < lo or (e_hi := _e_q(hi, lead, abs_t, cos_phi, denom, R_mid)) > tol:
        return ANALYTIC_REQUIRED
    # invariant: E_hi <= tol, and E_Q > tol for every Q < lo
    while lo < hi:
        mid = (lo + hi) // 2
        e_mid = _e_q(mid, lead, abs_t, cos_phi, denom, R_mid)
        if e_mid <= tol:
            hi, e_hi = mid, e_mid
        else:
            lo = mid + 1
    return OrderSelection(hi, e_hi)
