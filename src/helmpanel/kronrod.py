"""Round-based adaptive Gauss-Kronrod (7-15) integration of vector integrands.

``quad_adaptive`` is the one adaptive loop: each round integrates every
pending interval in one call of the integrand and bisects those whose
estimate exceeds their share of the tolerance (QUADPACK's estimate,
Piessens et al. 1983), up to ``MAX_INTERVALS`` intervals, a constant that
each call reads.  ``numquad`` binds it for ``adaptive_oracle`` and the
layer tracer.  ``start_width`` sizes starting pieces from the G7 rule's
error near a pole.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Gauss-Kronrod 7-15 pair on [-1, 1]: (node, Gauss weight, Kronrod weight),
# each the double nearest the exact value.  A 15-digit table's Kronrod
# weights sum to 2 - 6e-15: every value is then off by 13 machine epsilons
# of the integral of |f|, and |K15 - G7| never falls below 7e-15 of it, so
# a pass over a large integrand cannot converge at tol 1e-13.
_GK15 = (
    (+0.9491079123427585, 0.1294849661688697, 0.06309209262997856),
    (-0.9491079123427585, 0.1294849661688697, 0.06309209262997856),
    (+0.7415311855993945, 0.27970539148927664, 0.14065325971552592),
    (-0.7415311855993945, 0.27970539148927664, 0.14065325971552592),
    (+0.4058451513773972, 0.3818300505051189, 0.19035057806478542),
    (-0.4058451513773972, 0.3818300505051189, 0.19035057806478542),
    (0.0, 0.4179591836734694, 0.20948214108472782),
    (+0.9914553711208126, 0.0, 0.022935322010529224),
    (-0.9914553711208126, 0.0, 0.022935322010529224),
    (+0.8648644233597691, 0.0, 0.10479001032225019),
    (-0.8648644233597691, 0.0, 0.10479001032225019),
    (+0.5860872354676911, 0.0, 0.1690047266392679),
    (-0.5860872354676911, 0.0, 0.1690047266392679),
    (+0.20778495500789848, 0.0, 0.20443294007529889),
    (-0.20778495500789848, 0.0, 0.20443294007529889),
)
_GK_X = np.array([row[0] for row in _GK15])
_GK_WG = np.array([row[1] for row in _GK15])
_GK_WK = np.array([row[2] for row in _GK15])


def gk15(f, lo: np.ndarray, hi: np.ndarray):
    """GK15 values, error estimates and integrals of |f| on the intervals [lo_i, hi_i].

    One call of ``f`` on all 15 * len(lo) abscissae.  Returns the K15
    values (intervals, ncomp), per interval the largest component of the
    QUADPACK-style estimate, and the K15 integrals of |f| (intervals,
    ncomp).  The estimate is |K15 - G7| scaled by the interval's
    deviation-from-mean integral, so that smooth intervals are not held
    at the raw difference's roundoff floor.  A sample that is not finite
    gives an estimate that is not finite, without a warning (0 inf,
    inf - inf), and ``quad_adaptive`` ends the pass there.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GK_X
    y = np.asarray(f(x.ravel())).reshape(len(lo), len(_GK_X), -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sk = _GK_WK @ y
        half = half[:, None]
        # the Kronrod weights sum to 2, so sk / 2 is the mean of f
        resasc = half * (_GK_WK @ np.abs(y - 0.5 * sk[:, None, :]))
        e = half * np.abs(sk - _GK_WG @ y)
        mass = half * (_GK_WK @ np.abs(y))
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * e / resasc) ** 1.5),  # not taken where resasc is 0 or NaN
            e,
        )
    return half * sk, scaled.max(axis=1), mass


# roundoff of a pass's values per unit of its integral of |f|, per
# component.  Against 34-digit references on 47 random inputs of the
# earlier angle-pass oracle, its integrals from the oracle's start stayed
# within 3.2 machine epsilons, from four other starts within 8 but for one
# small d2I0/dn2 whose integrand cancels (17)
_ROUNDOFF = 16.0 * sys.float_info.epsilon


# Cap on the intervals of a ``quad_adaptive`` pass, read at each call (a test patches it).
MAX_INTERVALS = 4000


def quad_adaptive(f, a, b, tol: float):
    """Round-based adaptive Gauss-Kronrod quadrature of a vector integrand.

    ``f`` maps an array of abscissae to an array (npts, ncomp), real or
    complex, integrated over the intervals [a_i, b_i] (``a`` and ``b``
    scalars or equal-length 1-D arrays).  Each round takes every pending
    interval in one ``f`` call (``gk15``) and bisects those whose estimate
    exceeds tol * width / total width, until none does or the whole
    estimate is within tol (below the roundoff floor the per-width share
    can never be met).  An estimate that is not finite, or a bisection
    past ``MAX_INTERVALS`` intervals, ends the pass unconverged; every
    other round adds an interval, so the cap bounds the rounds.  Returns
    (values, error_estimate, converged): the summed QUADPACK-scaled
    |K15 - G7| plus the sum's roundoff, ``_ROUNDOFF`` times the largest
    component's integral of |f|, which bisection cannot reduce and the
    convergence tests leave out.  A tol not > 0 or ``a`` and ``b`` of
    different lengths are a ValueError, raised before ``f`` is called.
    """
    if not tol > 0.0:  # written so that a NaN fails it
        raise ValueError(f"tol must be > 0, got {tol!r}")
    lo, hi = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError(f"a and b must have the same length, got {lo.shape} and {hi.shape}")
    total = float(np.sum(np.abs(hi - lo)))
    per_width = tol / total if total > 0.0 else 0.0
    room = MAX_INTERVALS - len(lo)  # the intervals bisection may still add
    value, error, mass = 0.0, 0.0, 0.0
    while True:
        v, e, m = gk15(f, lo, hi)
        split = e > per_width * np.abs(hi - lo)
        n_split = int(np.count_nonzero(split))
        estimate = error + float(e.sum())
        converged = math.isfinite(estimate) and (n_split == 0 or estimate <= tol)
        if converged or n_split > room or not math.isfinite(estimate):
            value, error, mass = value + v.sum(axis=0), estimate, mass + m.sum(axis=0)
            break
        done = ~split
        value, error, mass = value + v[done].sum(axis=0), error + float(e[done].sum()), mass + m[done].sum(axis=0)
        room -= n_split
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    return value, error + _ROUNDOFF * float(mass.max()), converged


def start_width(pole: float, tol: float, total: float) -> float:
    """Width of starting pieces that G7 accepts on a range whose integrand's nearest pole is at height ``pole``.

    On a piece of half-width r under a simple pole of residue 1 at
    height y above its centre, the Gauss rule's error from that pole is
    about 2 pi rho^-(2n + 1), rho = y / r + sqrt((y / r)^2 + 1) the
    Bernstein ellipse through the pole (Donaldson & Elliott, SIAM J.
    Numer. Anal. 9(4), 1972; Trefethen, SIAM Review 50(1), 2008).  The G7
    rule drives the GK15 estimate, so n = 7.  Returns 2r for the largest r
    whose error stays within the piece's share tol 2r / total of the
    pass's tolerance, where 15 asinh(y / r) = ln(c / r), c = pi total / tol.  From rho >= 2y / r,
    r = 2y (2y / c)^(1/14) meets it, within 2% of the root at tol 1e-13;
    one step of r = y / sinh(ln(c / r) / 15) from there stays below the
    root and within 0.1% of it.  Where r reaches c, no width is too wide
    (rho >= 1), and the width is inf.  ln c is formed as a difference, so
    a tol near the float minimum gives a finite width.
    """
    log_c = math.log(math.pi * total) - math.log(tol)
    log_r = math.log(2.0 * pole) + (math.log(2.0 * pole) - log_c) / 14.0
    if log_r >= log_c:
        return math.inf
    return 2.0 * pole / math.sinh((log_c - log_r) / 15.0)
