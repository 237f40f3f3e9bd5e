"""Round-based adaptive Gauss-Kronrod (7-15) integration of vector integrands.

``gk_rounds`` is the one adaptive loop: each round integrates every
pending interval in one call of the integrand and bisects those whose
estimate exceeds their share of the tolerance (QUADPACK's estimate,
Piessens et al. 1983); its error estimate also carries the roundoff of
the sum.  ``numquad.quad_adaptive`` checks its arguments and runs it.
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
    """GK15 values and error estimates on the intervals [lo_i, hi_i].

    One call of ``f`` on all 15 * len(lo) abscissae.  Returns the K15
    values (intervals, ncomp), per interval the largest component of the
    QUADPACK-style estimate, and the samples (intervals, 15, ncomp).  The
    estimate is |K15 - G7| scaled by the interval's deviation-from-mean
    integral, so that smooth intervals are not held at the raw
    difference's roundoff floor.  A sample that is not finite gives an
    estimate that is not finite, without a warning (0 inf, inf - inf), and
    ``gk_rounds`` ends the pass there.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GK_X
    y = np.asarray(f(x.ravel())).reshape(len(lo), len(_GK_X), -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sk = _GK_WK @ y
        k15 = half[:, None] * sk
        g7 = half[:, None] * (_GK_WG @ y)
        # the Kronrod weights sum to 2, so sk / 2 is the mean of f
        resasc = half[:, None] * (_GK_WK @ np.abs(y - 0.5 * sk[:, None, :]))
        e = np.abs(k15 - g7)
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * e / resasc) ** 1.5),  # not taken where resasc is 0 or NaN
            e,
        )
    return k15, np.max(scaled, axis=1), y


# roundoff of a pass's values per unit of its integral of |f|, per
# component.  Against 34-digit references on 47 random inputs of the
# earlier angle-pass oracle, its integrals from the oracle's start stayed
# within 3.2 machine epsilons, from four other starts within 8 but for one
# small d2I0/dn2 whose integrand cancels (17)
_ROUNDOFF = 16.0 * sys.float_info.epsilon


def gk_rounds(f, lo: np.ndarray, hi: np.ndarray, tol: float, max_rounds: int, max_added: int):
    """Round-based adaptive GK15 over the intervals [lo_i, hi_i].

    Each round integrates every pending interval in one ``f`` call and
    bisects those whose estimate exceeds tol * width / total width.  The
    pass has converged once none does, or once the accepted plus pending
    estimate is within tol: below the roundoff floor the per-width share
    can never be met.  When ``max_rounds`` rounds are spent, or bisecting
    would add more than ``max_added`` intervals to the starting ones, the
    pending intervals count as they are and the pass has not converged,
    as it has not, at once, when that estimate is not finite.
    Returns the sum of the final intervals' K15 values, their summed error
    estimate plus the roundoff of that sum (``_ROUNDOFF`` times the
    largest component's K15 integral of |f|, which bisection cannot reduce
    and the convergence tests leave out), and the convergence flag.
    """
    total = float(np.sum(np.abs(hi - lo)))
    per_width = tol / total if total > 0.0 else 0.0
    done_v, error, added, mass = [], 0.0, 0, 0.0
    for rounds in range(1, max_rounds + 1):
        v, e, y = gk15(f, lo, hi)
        split = e > per_width * np.abs(hi - lo)
        n_split = np.count_nonzero(split)
        estimate = error + float(np.sum(e))
        finite = math.isfinite(estimate)
        converged = finite and bool(n_split == 0 or estimate <= tol)
        if converged or not finite or rounds == max_rounds or added + n_split > max_added:
            split[:] = False
        done = ~split
        done_v.append(v[done])
        error += float(np.sum(e[done]))
        # K15 integral of |f| over the accepted intervals, per component
        mass = mass + np.sum(0.5 * np.abs(hi - lo)[done, None] * (_GK_WK @ np.abs(y[done])), axis=0)
        if not split.any():
            break
        added += n_split
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    error += _ROUNDOFF * float(np.max(mass))
    return np.concatenate(done_v).sum(axis=0), error, converged
