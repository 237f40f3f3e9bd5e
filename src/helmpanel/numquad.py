"""Numerical quadrature for panel integrals, plus the validation oracle.

``polar_integrate`` is the production numeric path: the planar triangle is
split about the origin and an n x n Gauss-Legendre tensor rule applied in
(angle, r) on each subtriangle, with the polar Jacobian absorbing one
power of the 1/R singularity.  The angle variable is theta, or the
far-side parameter u = s tan(theta) when the field point is far from the
plane (see ``polar_nodes``).

``adaptive_oracle`` is the independent reference: globally adaptive
Gauss-Kronrod integration of the defining integrals, sharing nothing with
the expansion/recursion machinery.  For the 1-weighted integrals the
radial integral has a closed form, so only the angle direction is
integrated numerically.  The x/y moments need a radial integral in the
substitution t^2 = R - |z|, which removes the square-root behaviour at
r = 0.  Its integrand does not depend on the angle, which enters only
through the upper limit tau(theta), so each angle panel takes its 15
radial moments from one cumulative integral (``quad_cumulative``)
evaluated at the 15 limits.
"""

from __future__ import annotations

import cmath
import heapq
import math
from functools import lru_cache

import numpy as np

from .analytic import PanelIntegrals
from .geometry import ref_params, subdivide

# Gauss-Kronrod 7-15 pair on [-1, 1]: (node, Gauss weight, Kronrod weight).
_GK15 = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
)
_GK_X = np.array([row[0] for row in _GK15])
_GK_WG = np.array([row[1] for row in _GK15])
_GK_WK = np.array([row[2] for row in _GK15])


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gk15(f, lo: np.ndarray, hi: np.ndarray):
    """GK15 values and error estimates on the intervals [lo_i, hi_i].

    One call of ``f`` on all 15 * len(lo) abscissae.  Returns the K15
    values (intervals, ncomp) and, per interval, the largest component
    of the QUADPACK-style estimate: |K15 - G7| scaled by the interval's
    deviation-from-mean integral, so that smooth intervals are not held
    at the raw difference's roundoff floor.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _GK_X
    y = np.asarray(f(x.ravel())).reshape(len(lo), len(_GK_X), -1)
    sk = _GK_WK @ y
    k15 = half[:, None] * sk
    g7 = half[:, None] * (_GK_WG @ y)
    # the Kronrod weights sum to 2, so sk / 2 is the mean of f
    resasc = half[:, None] * (_GK_WK @ np.abs(y - 0.5 * sk[:, None, :]))
    e = np.abs(k15 - g7)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * e / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            e,
        )
    return k15, np.max(scaled, axis=1)


def quad_adaptive(f, a: float, b: float, tol: float, max_intervals: int = 4000):
    """Globally adaptive Gauss-Kronrod quadrature of a vector integrand.

    ``f`` maps an array of abscissae to an array (npts, ncomp); complex
    components are fine.  Returns (values, error_estimate, converged);
    the estimate is the summed per-interval |K15 - G7| (QUADPACK-scaled,
    see ``_gk15``), a conservative bound for smooth integrands.
    """

    def panel(lo: float, hi: float):
        v, e = _gk15(f, np.array([lo]), np.array([hi]))
        return v[0], float(e[0])

    val, err = panel(a, b)
    heap = [(-err, a, b, val, err)]
    total = val.copy()
    total_err = err
    count = 1
    while total_err > tol and count < max_intervals:
        _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total = total - v + v1 + v2
        total_err = total_err - e + e1 + e2
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        count += 1
    return total, total_err, total_err <= tol


# Limits on one ``quad_cumulative`` pass: bisection rounds, and pending
# intervals (15 abscissae each per round); it stops rather than exceed them.
CUMULATIVE_MAX_ROUNDS = 40
CUMULATIVE_MAX_PENDING = 20000


def quad_cumulative(f, limits, tol: float):
    """``int_0^L f`` for every ``L`` in ``limits``, from one adaptive pass.

    ``f`` is a vector integrand as in ``quad_adaptive``.  The sorted
    limits cut [0, max(limits)] into gaps; every pending interval is
    integrated by GK15 in one ``f`` call per round, and an interval is
    accepted once its error estimate is within tol * width / max(limits),
    else bisected.  The accepted pieces are summed per gap and the gaps
    cumulatively, so every returned value is within ``tol`` (by the
    estimate).  Zero and repeated limits give empty gaps.  When
    ``CUMULATIVE_MAX_ROUNDS`` or ``CUMULATIVE_MAX_PENDING`` stops the bisection,
    the pending intervals still contribute their K15 values and errors,
    and ``converged`` is False.

    Returns (values (len(limits), ncomp), error_estimate, converged);
    the estimate is the summed error of all pieces, which bounds the
    error of the largest limit's value and so of every value.
    """
    limits = np.asarray(limits, dtype=float)
    if limits.ndim != 1 or limits.size == 0 or not np.all((limits >= 0.0) & (limits < np.inf)):
        raise ValueError("limits must be a non-empty 1-D array of finite values >= 0")
    # a Python sort of the few limits: NumPy's sort kernels would map about
    # 0.25 MB of code into a process that sorts nothing else
    order = np.array(sorted(range(limits.size), key=limits.__getitem__))
    edges = np.concatenate([[0.0], limits[order]])
    gap = np.flatnonzero(edges[1:] > edges[:-1])
    if gap.size == 0:
        gap = np.array([0])  # all limits zero: one empty gap gives the shape
    lo, hi = edges[gap], edges[gap + 1]
    per_width = tol / edges[-1] if edges[-1] > 0.0 else 0.0
    pieces = None
    error = 0.0
    for rounds in range(1, CUMULATIVE_MAX_ROUNDS + 1):
        v, e = _gk15(f, lo, hi)
        if pieces is None:
            pieces = np.zeros((len(limits), v.shape[1]), dtype=v.dtype)
        split = e > per_width * (hi - lo)
        converged = not split.any()
        if rounds == CUMULATIVE_MAX_ROUNDS or 2 * np.count_nonzero(split) > CUMULATIVE_MAX_PENDING:
            split[:] = False  # stop: the pending intervals count as they are
        done = ~split
        np.add.at(pieces, gap[done], v[done])
        error += float(np.sum(e[done]))
        if not split.any():
            break
        gap, lo, hi = gap[split], lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        gap = np.repeat(gap, 2)
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    values = np.empty_like(pieces)
    values[order] = np.cumsum(pieces, axis=0)
    return values, error, converged


def polar_nodes(verts2d, n: int, z: float):
    """Quadrature nodes for the polar transformation on a planar triangle.

    Returns (x, y, w): plane coordinates and signed weights including the
    polar Jacobian, so that sum(w * f(x, y)) approximates the area
    integral of f.  With f = 1 the weights sum to the triangle area.

    The angle direction carries the area factor rbar^2 = s^2 sec^2(theta),
    whose poles at theta = +-pi/2 defeat n Gauss points in theta over a
    wide subtriangle once the kernel is nearly constant across it.  So
    when the height z of the field point satisfies |z| >= s, the n
    angular points of that subtriangle are placed on the far-side
    parameter u = s tan(theta), where dtheta = s du / (s^2 + u^2) makes the
    area factor constant.  For |z| < s the 1/R kernel cancels one power of
    rbar, and the rest is smoother in theta than in u (whose integrand
    then has singularities near u = +-i s), so theta is kept; z = 0 keeps
    it on every subtriangle.

    All subtriangles are built at once, as (subtriangle, angle node,
    radial node) arrays.  An angle node maps to its point on the far side,
    s e + u e', with e the direction of the perpendicular foot and e' that
    direction turned by +90 degrees; the radial nodes lie on the segment
    from the origin to that point, at the fractions rho = (x_g + 1) / 2,
    with weights rbar^2 rho w_g / 2 (rbar^2 = s^2 + u^2).
    """
    subs = subdivide(verts2d)
    if not subs:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    xg, wg = gauss_rule(n)
    rows = []
    for sub in subs:
        geom = ref_params(sub, 0.0)
        s, lo, hi = geom.s, geom.theta_lo, geom.theta_hi
        far = abs(z) >= s
        if far:
            lo, hi = s * math.tan(lo), s * math.tan(hi)
        half = 0.5 * (hi - lo)
        c, sn = math.cos(geom.psi), math.sin(geom.psi)  # unit vector e
        # signed area factor rbar^2 dtheta: (s^2 + u^2) dtheta in theta,
        # s du in u; its coefficients of 1 and u^2, times half the range
        sh = sub.sign * half
        area = (sh * s, 0.0) if far else (sh * s * s, sh)
        rows.append((far, 0.5 * (hi + lo), half, s, c, sn, *area))
    far, mid, half, s, c, sn, a0, a1 = np.array(rows).T[:, :, None]
    # (subtriangle, angle node): the angular variable, its far-side
    # parameter u = s tan(theta) and the far-side point s e + u e'
    v = mid + half * xg
    # sin / cos, not np.tan: NumPy's tan kernel would map about 0.25 MB
    # of code into a process that calls it nowhere else
    u = np.where(far, v, s * np.sin(v) / np.cos(v))
    px = s * c - u * sn
    py = s * sn + u * c
    area = (a0 + a1 * (u * u)) * wg
    # radial nodes r = rho rbar on [0, rbar], weights rbar^2 rho wg / 2
    rho = 0.5 * (xg + 1.0)
    x = px[:, :, None] * rho
    y = py[:, :, None] * rho
    w = area[:, :, None] * (0.5 * wg * rho)
    return x.ravel(), y.ravel(), w.ravel()


def _kernel_sums(x, y, w, z: float, k: float, want_hyper: bool) -> PanelIntegrals:
    r2 = x * x + y * y
    R = np.sqrt(r2 + z * z)
    inv_r = 1.0 / R
    gp = 1j * k - inv_r  # (dG/dR) / G
    z_r = z * inv_r
    wG = w * (np.exp(1j * k * R) / R)
    wdG = wG * gp * z_r  # w dG/dz
    vals = [wG.sum(), (x * wG).sum(), (y * wG).sum(), -wdG.sum(), -(x * wdG).sum(), -(y * wdG).sum()]
    if want_hyper:
        vals.append((wG * ((gp * gp + inv_r * inv_r) * z_r**2 + gp * r2 * inv_r**3)).sum())
    return PanelIntegrals(np.array(vals))


def polar_integrate(verts2d, z: float, k: float, n: int, want_hyper: bool = False) -> PanelIntegrals:
    """n x n Gauss quadrature of the panel integrals in polar coordinates.

    The z-derivatives integrate the differentiated kernel; at z = 0 they
    vanish identically (symmetric value), unlike the one-sided analytic
    limits.
    """
    x, y, w = polar_nodes(verts2d, n, z)
    return _kernel_sums(x, y, w, z, k, want_hyper)


def adaptive_oracle(
    verts2d,
    z: float,
    k: float,
    tol: float = 1e-13,
    want_hyper: bool = False,
    components: tuple[str, ...] = ("i0", "ixy", "di0", "dixy"),
    return_status: bool = False,
):
    """Adaptive reference evaluation of the panel integrals.

    Independent of the expansion machinery: adaptive Gauss-Kronrod in the
    angle with exact (1-weight) or adaptively integrated (x/y-weight)
    radial integrals; the latter come from one ``quad_cumulative`` call
    per angle panel.  ``components`` limits only the x/y-moment work:
    with neither "ixy" nor "dixy" the x/y entries are returned as 0, and
    without "dixy" only dIx/dn and dIy/dn are; I0 and dI0/dn (and with
    ``want_hyper`` d2I0/dn2) are always computed.  Derivatives at z = 0
    are one-sided limits from z > 0, matching the analytic convention.

    With ``return_status`` the achieved error estimate and convergence
    flag are returned alongside the values instead of being discarded;
    both include the radial integrals of the x/y moments.
    """
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    jk = 1j * k
    ez = cmath.exp(1j * k * az)
    subs = subdivide(verts2d)
    total = PanelIntegrals(np.zeros(7 if want_hyper else 6, dtype=complex))
    achieved = 0.0
    converged = True
    if not subs:
        return (total, {"error": 0.0, "converged": True}) if return_status else total
    tol_sub = tol / len(subs)
    want_xy = "ixy" in components or "dixy" in components
    need_dm = "dixy" in components

    def f_in(t):
        # x/y radial moment (and its normal derivative, -d/dz) after
        # t^2 = R - |z|:
        # the same for every angle and subtriangle, which enter only
        # through the upper limit tau = sqrt(Rbar - |z|)
        R = az + t * t
        m = 2.0 * np.exp(1j * k * R) * t * t * np.sqrt(t * t + 2.0 * az)
        if need_dm:
            return np.stack([m, z * (1.0 / R - jk) * m / R], axis=-1)
        return m[:, None]

    for sub in subs:
        geom = ref_params(sub, z)
        inner_err = 0.0

        def f_theta(th):
            nonlocal inner_err, converged
            th = np.asarray(th)
            rbar = geom.s / np.cos(th)
            Rbar = np.sqrt(rbar * rbar + z * z)
            eR = np.exp(1j * k * Rbar)
            if k == 0.0:
                i0 = Rbar - az
            else:
                i0 = (eR - ez) / jk
            di0 = sigma * ez - (z / Rbar) * eR
            hyp = (rbar**2 / Rbar**3 + jk * z * z / Rbar**2) * eR - jk * ez
            ix = iy = dix = diy = np.zeros_like(i0)
            if want_xy:
                tau = np.sqrt(np.maximum(Rbar - az, 0.0))
                v, err, ok = quad_cumulative(f_in, tau, tol_sub * 0.02)
                inner_err = max(inner_err, err)
                converged = converged and ok
                cpsi = np.cos(geom.psi + th)
                spsi = np.sin(geom.psi + th)
                ix, iy = cpsi * v[:, 0], spsi * v[:, 0]
                if need_dm:
                    dix, diy = cpsi * v[:, 1], spsi * v[:, 1]
            # PanelIntegrals order
            return np.stack([i0, ix, iy, di0, dix, diy, hyp], axis=-1)

        v, err, ok = quad_adaptive(f_theta, geom.theta_lo, geom.theta_hi, tol_sub)
        # an inner error e at every angle node moves the outer value by at
        # most (theta_hi - theta_lo) * e, since |cos|, |sin| <= 1
        achieved += err + (geom.theta_hi - geom.theta_lo) * inner_err
        converged = converged and ok
        total.values += sub.sign * v[: len(total.values)]
    if return_status:
        return total, {"error": achieved, "converged": converged}
    return total
