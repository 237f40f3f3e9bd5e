"""Numerical quadrature for panel integrals, plus the validation oracle.

``polar_integrate`` is the production numeric path, the whole rule in
one function: on each signed subtriangle of the fan about the origin an
n x n Gauss-Legendre tensor rule is applied in (angle, r), with the
polar Jacobian absorbing one power of the 1/R singularity.  The angle
variable is theta, or the far-side parameter u = s tan(theta) when the
field point is far from the plane (see ``polar_nodes``).  The rule is
factored by rays: its n radial nodes sit at the same fractions of every
ray from the origin, so only the angle nodes are built per call, the
radial template is cached per order with the Gauss rule
(``polar_rule``), and the kernel is summed along every ray by one matrix
product before the rays are summed.  At z = 0 only G is evaluated: both
normal-derivative limits come from the rays' own angle weights.

``adaptive_oracle`` is the independent reference: adaptive Gauss-Kronrod
integration of the defining integrals, sharing nothing with the
expansion/recursion machinery.  For the 1-weighted integrals the radial
integral has a closed form, so only the angle direction is integrated
numerically, in one round-based pass over the angle ranges of all
subtriangles laid end to end, started from equal pieces no wider than
``ANGLE_PIECE``.  The x/y moments need a radial integral in
the substitution t^2 = R - |z|, which removes the square-root behaviour
at r = 0.  Its integrand does not depend on the angle, which enters only
through the upper limit tau = sqrt(Rbar - |z|), so one adaptive pass over
[0, max tau] is made before the angle pass and kept as an
antiderivative (``kronrod.antiderivative``): whole pieces by their K15
sums, a partial piece by the integral of its 15-node interpolant.  Every
round of the angle pass only evaluates it at the limits of its nodes.
Both passes' estimates include the roundoff of their sums.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from . import kronrod
from .analytic import PanelIntegrals
from .expapprox import check_k
# ref_params is bound here, unused, for the layer tracer of perfbench
from .geometry import check_height, ref_params, subdivide  # noqa: F401


def _is_count(n) -> bool:
    """Whether n is an integer >= 1, Python or NumPy, and not a bool."""
    return not isinstance(n, bool) and isinstance(n, (int, np.integer)) and n >= 1


def check_order(n) -> None:
    """Raise ValueError unless the Gauss order n is an integer >= 1 (a bool is not)."""
    if not _is_count(n):
        raise ValueError(f"n_gauss must be an integer >= 1, got {n!r}")


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_(n-1)(x) and P_n(x) at a float x, each correctly rounded.

    The three-term recurrence k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2)
    run exactly, on integers: with x = m / s (s a power of two),
    Q_k = k! s^k P_k(x) obeys Q_k = (2k - 1) m Q_(k-1) - (k - 1)^2 s^2 Q_(k-2),
    and only the two quotients are rounded.
    """
    m, s = x.as_integer_ratio()
    shift = 2 * (s.bit_length() - 1)  # s^2 = 2^shift
    q0, q1 = 1, m
    for k in range(2, n + 1):
        q0, q1 = q1, (2 * k - 1) * m * q1 - ((k - 1) ** 2 * q0 << shift)
    d = math.factorial(n) * s**n
    return q0 * (n * s) / d, q1 / d


@lru_cache(maxsize=None, typed=True)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], ascending, cached per n and its type.

    Each node x >= 0 is found by Newton's method on P_n from
    cos(pi (i - 1/4) / (n + 1/2)), i = 1 .. ceil(n / 2) (0 exactly for odd
    n), with P_n and P_(n-1) evaluated exactly at the float iterate
    (``_legendre``), so the iteration stops on the double nearest the
    root.  Its weight is 2 / ((1 - x^2) P_n'(x)^2), taken from the rounded
    node to the root by the last Newton step d = P_n / P_n': the factor
    1 + 2 x d / (1 - x^2) removes the first-order change, whose rate
    2x / (1 - x^2) would cost up to 6e-15 at n = 17.  The negative half
    mirrors the positive one.  Against 40-digit rules, nodes are within
    half an ulp and weights within 3 machine epsilons up to n = 100
    (``numpy.polynomial.legendre.leggauss``, which also maps LAPACK into
    the process: 1.5e-14 at n = 17, 9.6e-13 at n = 50).  The exact
    integers grow to about 60 n bits, so a rule costs O(n^3) bit
    operations; the library reads n = 8 .. 17 and 50.

    The cache is typed so that 2.0 or True never reads the entry of 2 or
    1: a bad order is always a miss, and ``check_order`` rejects it.
    """
    check_order(n)
    n = int(n)
    xs, ws = [], []  # the nodes in (0, 1), and 0 for odd n, descending
    for i in range(1, (n + 1) // 2 + 1):
        x = 0.0 if 2 * i == n + 1 else math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            pm, p = _legendre(n, x)
            c = (1.0 - x) * (1.0 + x)
            dp = n * (pm - x * p) / c
            step = p / dp
            if x - step == x:
                break
            x -= step
        xs.append(x)
        ws.append(2.0 / (c * dp * dp) * (1.0 + 2.0 * x * step / c))
    half = n // 2  # nodes below 0
    x, w = np.array([-v for v in xs[:half]] + xs[::-1]), np.array(ws[:half] + ws[::-1])
    x.flags.writeable = w.flags.writeable = False  # cached and shared
    return x, w


def quad_adaptive(f, a, b, tol: float, max_intervals: int = 4000):
    """Adaptive Gauss-Kronrod quadrature of a vector integrand.

    ``f`` maps an array of abscissae to an array (npts, ncomp); complex
    components are fine.  ``a`` and ``b`` are scalars or equal-length 1-D
    arrays; the integral is the sum over the intervals [a_i, b_i], taken
    in rounds by ``kronrod.gk_rounds`` with at most ``max_intervals``
    intervals.  Returns (values, error_estimate, converged); the estimate
    is the summed per-interval |K15 - G7| (QUADPACK-scaled, see
    ``kronrod.gk15``), a conservative bound for smooth integrands, plus
    the roundoff of the sum.  A tol not > 0, a ``max_intervals`` that is
    not an integer >= 1 (a bool is not) or an ``a`` and ``b`` of different
    lengths are a ValueError, raised before ``f`` is called.
    """
    if not tol > 0.0:  # written so that a NaN fails it
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if not _is_count(max_intervals):
        raise ValueError(f"max_intervals must be an integer >= 1, got {max_intervals!r}")
    lo, hi = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError(f"a and b must have the same length, got {lo.shape} and {hi.shape}")
    # every round but the last adds an interval: the cap bounds the rounds
    _, v, _, error, converged = kronrod.gk_rounds(f, lo, hi, tol, max_intervals, max_intervals - len(lo))
    return v.sum(axis=0), error, converged


# Limits on the oracle's ``kronrod.antiderivative`` pass: bisection rounds,
# and intervals added to the starting ones by bisection (15 abscissae each
# per round while pending); it stops rather than exceed them.
CUMULATIVE_MAX_ROUNDS = 40
CUMULATIVE_MAX_PENDING = 20000


@lru_cache(maxsize=None, typed=True)
def polar_rule(n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The n-point Gauss rule as ``polar_nodes`` and ``polar_integrate`` read it.

    Returns (angle, rho^2, radial): the (x_g, w_g) pairs as Python floats
    for the angle nodes; the squared fractions rho = (x_g + 1) / 2 of the
    radial nodes along a ray; and an (n, 2) array whose columns are
    w_g rho / 2 and w_g rho^2 / 2, the radial weights of the 1- and the
    x/y-weighted integrals.  The cache is typed as ``gauss_rule``'s, so a
    bad order is always a miss that ``check_order`` rejects there.
    """
    xg, wg = gauss_rule(n)
    rho = 0.5 * (xg + 1.0)
    radial = np.column_stack([0.5 * wg * rho, 0.5 * wg * rho * rho]).astype(complex)
    rho2 = rho * rho
    rho2.flags.writeable = radial.flags.writeable = False  # cached and shared
    return tuple(zip(xg.tolist(), wg.tolist())), rho2, radial


def polar_nodes(fan, n: int, z: float):
    """Ray-factored nodes of the polar n x n rule over a signed fan.

    ``fan`` is the list of signed subtriangles about the projection
    (``geometry.walk``).  Each of the m = n len(fan) angle nodes
    spans a ray from the origin to its point on the far side of its
    subtriangle, and the n radial nodes of every ray lie at the same
    fractions rho of it (``polar_rule``).  Returns (r2, points, area):
    r2 = rbar^2 rho^2, the squared plane distance of each of the m n nodes,
    ray by ray, so ``len(r2)`` is the node count; and per ray its far-side
    point, an (m, 2) array at distance rbar, and its signed area weight.
    A function f of the plane point integrates as
    sum_i area_i sum_g (w_g rho_g / 2) f(rho_g points_i); with f = 1 the
    area weights sum to twice the triangle area.

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

    An angle node maps to its point on the far side, s e + u e', with e
    the direction of the perpendicular foot and e' that direction turned
    by +90 degrees, so rbar^2 = s^2 + u^2; its area weight is rbar^2 w_g
    times half the signed angle range, or s w_g times half the signed u
    range on the far side.  The few rays per subtriangle are built on
    Python floats and stacked into one array: at the estimator's orders
    that is cheaper than a dozen NumPy operations on arrays of a few
    dozen elements.
    """
    angle, rho2, _ = polar_rule(n)
    rays = []
    for sub in fan:
        s, lo, hi = sub.s, sub.theta_lo, sub.theta_hi
        far = abs(z) >= s
        if far:
            lo, hi = s * math.tan(lo), s * math.tan(hi)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        c, sn = sub.cos_psi, sub.sin_psi  # unit vector e
        # signed area factor rbar^2 dtheta: (s^2 + u^2) dtheta in theta,
        # s du in u; its coefficients of 1 and u^2, times half the range
        sh = sub.sign * half
        a0, a1 = (sh * s, 0.0) if far else (sh * s * s, sh)
        for x, w in angle:
            v = mid + half * x  # theta, or u itself on the far side
            u = v if far else s * math.tan(v)
            u2 = u * u
            rays += (s * c - u * sn, s * sn + u * c, (a0 + a1 * u2) * w, s * s + u2)
    table = np.array(rays).reshape(-1, 4)  # (px, py, area, rbar^2) per ray; (0, 4) for no rays
    return (table[:, 3:] * rho2).ravel(), table[:, :2], table[:, 2]


def polar_integrate(fan, z: float, k: float, n: int, want_hyper: bool = False) -> PanelIntegrals:
    """n x n Gauss quadrature of the panel integrals in polar coordinates.

    ``fan`` is the list of signed subtriangles about the projection
    (``geometry.walk`` or ``subdivide``); ``polar_nodes`` gives its rays.
    A fan of bare plane vertices carries their orientation: that of a
    clockwise order gives every component negated.
    The kernel rows G = e^{jkR}/R, (dG/dz) / z and, with ``want_hyper``,
    d2G/dz2 are evaluated at every node and reduced along each ray by
    ``polar_rule(n)``'s radial weights (rho for the 1-weighted integrals,
    rho^2 for the x/y moments, since a node lies at rho times its ray's
    far-side point), then across the rays by the area weights and the
    area-weighted far-side points; the first derivatives take their
    factor -z (d/dn = -d/dz) last.

    At z = 0 only G is evaluated, and the derivatives are the one-sided
    limits from z > 0 (the convention of the analytic path and the
    oracle), taken ray by ray with the ray's signed angle weight
    w = area / rbar^2, rbar its far-side distance.  dG/dz vanishes there,
    so ``dI0/dn`` is the jump term sum w, the angle the panel subtends
    (2 pi inside, pi on an edge, the vertex angle at a vertex, 0 outside;
    over a subtriangle the w sum to sign * Theta), and the x/y moments
    have none.  ``d2I0/dn2`` is the finite part of the limit: along a ray
    the radial integral of d2G/dz2 tends to e^{jk rbar}/rbar - jk.
    A z that ``geometry.check_height`` rejects (|z| above about 1.34e154,
    whose square is not finite), a k that ``expapprox.check_k`` rejects
    (not finite, negative or a bool) or an n that ``check_order`` rejects
    (through ``polar_rule``'s typed cache) is a ValueError.
    """
    check_height(z)
    check_k(k)
    r2, points, area = polar_nodes(fan, n, z)
    out = np.zeros((3 if want_hyper else 2, 3), dtype=complex)  # (kernel row, 1 / x / y)
    rows = np.empty((1 if z == 0.0 else len(out), len(r2)), dtype=complex)
    R = np.sqrt(r2 + z * z)
    inv_r = 1.0 / R
    G = rows[0]  # e^{jkR}, as cos + j sin in place: the bits of np.exp
    kR = k * R
    np.cos(kR, out=G.real)
    np.sin(kR, out=G.imag)
    G *= inv_r
    if z != 0.0:
        gp = 1j * k - inv_r  # (dG/dR) / G
        np.multiply(G, gp * inv_r, out=rows[1])
        if want_hyper:
            z_r = z * inv_r
            np.multiply(G, (gp * gp + inv_r * inv_r) * z_r**2 + gp * r2 * inv_r**3, out=rows[2])
    per_ray = rows.reshape(len(rows), len(area), n) @ polar_rule(n)[2]
    np.matmul(per_ray[:, :, 0], area, out=out[: len(rows), 0])
    np.matmul(per_ray[:, :, 1], points * area[:, None], out=out[: len(rows), 1:])
    if z != 0.0:
        out[1] *= -z
    else:
        rbar = np.hypot(points[:, 0], points[:, 1])
        w = area / (rbar * rbar)
        out[1, 0] = w.sum()
        if want_hyper:
            out[2, 0] = np.dot(w, np.exp(1j * k * rbar) / rbar - 1j * k)
    return PanelIntegrals(out.ravel()[: len(out) + 4])


# The names ``adaptive_oracle`` accepts in ``components``.
ORACLE_COMPONENTS = ("i0", "ixy", "di0", "dixy")

# Widest starting piece of the oracle's angle pass, in radians: the fastest
# of pi/6 .. pi/16 on the oracle_sweep pool, 1.2 rounds per call.
ANGLE_PIECE = math.pi / 12


def adaptive_oracle(
    verts2d,
    z: float,
    k: float,
    tol: float = 1e-13,
    want_hyper: bool = False,
    components: tuple[str, ...] = ORACLE_COMPONENTS,
    return_status: bool = False,
):
    """Adaptive reference evaluation of the panel integrals.

    Independent of the expansion machinery, in the two passes of the
    module docstring.  ``verts2d`` are orientation-signed, as in
    ``geometry.subdivide``: a clockwise order negates every component.
    Each angle node forms d = Rbar - |z| once, as rbar^2 / (Rbar + |z|):
    I0 is d (k = 0) or (2/k) e^{jk|z|} h Im h with h = e^{jkd/2},
    e^{jk Rbar} is e^{jk|z|} h^2 and tau = sqrt(d), so I0 and the moments
    keep their relative accuracy far above a panel; dI0/dn and d2I0/dn2
    still cancel there, in sigma e^{jk|z|} - (z/Rbar) e^{jk Rbar}, and are
    accurate to absolute rounding only.  ``components`` limits only the
    x/y-moment work: "ixy" and "dixy" each give the moments and their
    normal derivatives, and with neither the x/y entries are returned as 0
    (and no radial pass is made); I0 and dI0/dn are always computed.
    d2I0/dn2 is integrated only with ``want_hyper``, so otherwise it steers
    neither the refinement nor the estimate.  Derivatives at z = 0 are
    one-sided limits from z > 0, matching the analytic convention.

    With ``return_status`` the achieved error estimate and convergence
    flag are returned alongside the values instead of being discarded;
    both include the radial integrals of the x/y moments.  The estimate
    also carries both passes' roundoff, 16 machine epsilons of the
    largest component's integral of |f| (``kronrod.gk_rounds``).  So a
    converged call reports more than tol where a component is of order
    1e2 or more (d2I0/dn2 just above a panel): 1e-13 is below one ulp there.
    A z that ``geometry.check_height`` rejects, a k that
    ``expapprox.check_k`` rejects (a bool among them), a tol not > 0, a
    name in ``components`` outside ORACLE_COMPONENTS or vertices that are
    not three finite (x, y) pairs (``geometry.edge_walk``) are a ValueError.
    """
    check_height(z)
    check_k(k)
    if not tol > 0.0:  # written so that a NaN fails it
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if not set(components) <= set(ORACLE_COMPONENTS):
        raise ValueError(f"components must be names among {ORACLE_COMPONENTS}, got {components!r}")
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    jk = 1j * k
    ez = cmath.exp(1j * k * az)
    subs = subdivide(verts2d)
    total = PanelIntegrals(np.zeros(7 if want_hyper else 6, dtype=complex))
    if not subs:
        return (total, {"error": 0.0, "converged": True}) if return_status else total
    want_xy = "ixy" in components or "dixy" in components
    rows = [(b.sign, b.s, b.theta_lo, b.theta_hi, math.atan2(b.sin_psi, b.cos_psi)) for b in subs]
    sign, s, theta_lo, theta_hi, psi = np.array(rows).T
    # the angle ranges end to end: subtriangle j covers [offsets[j], offsets[j + 1]],
    # cut in Python arithmetic (no further NumPy kernels in an oracle-only process)
    offsets = np.concatenate([[0.0], np.cumsum(theta_hi - theta_lo)])
    cuts = []
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        n = math.ceil((b - a) / ANGLE_PIECE)  # >= 1: the walk keeps Theta >= DROP_ANGLE
        cuts += [a + (b - a) * i / n for i in range(n)]
    cuts = np.array(cuts + [offsets[-1]])

    def f_in(t):
        # x/y radial moment (and its normal derivative, -d/dz) after t^2 = R - |z|: the same
        # for every angle and subtriangle, which enter only through tau = sqrt(d), d = Rbar - |z|
        R = az + t * t
        m = 2.0 * np.exp(1j * k * R) * t * t * np.sqrt(t * t + 2.0 * az)
        return np.stack([m, z * (1.0 / R - jk) * m / R], axis=-1)

    inner_err, inner_ok = 0.0, True
    if want_xy:
        # rbar = s / cos(theta) is largest at an end of its angle range
        r2 = np.concatenate([s / np.cos(theta_lo), s / np.cos(theta_hi)]) ** 2
        tau_max = math.sqrt(float(np.max(r2 / (np.sqrt(r2 + z * z) + az))))
        # f_in has branch points at t = +-i sqrt(2|z|): start from pieces
        # halved toward t = 0 until the first is no wider than that (at
        # most 40 halvings), each cut in three, so that most passes accept
        # every piece in their first round
        scale = math.sqrt(2.0 * az)
        n = math.ceil(math.log2(tau_max / scale)) if 0.0 < scale < tau_max else 0
        halved = np.append(0.0, tau_max * 0.5 ** np.arange(min(n, 40), -1.0, -1.0))
        thirds = halved[:-1, None] + np.diff(halved)[:, None] * np.array([0.0, 1.0, 2.0]) / 3.0
        edges = np.append(thirds.ravel(), tau_max)
        radial, inner_err, inner_ok = kronrod.antiderivative(
            f_in, edges, tol * 0.02 / len(subs), CUMULATIVE_MAX_ROUNDS, CUMULATIVE_MAX_PENDING
        )

    def f_theta(x):
        j = np.searchsorted(offsets[1:-1], x, "right")  # the node's subtriangle
        th = theta_lo[j] + (x - offsets[j])
        rbar = s[j] / np.cos(th)
        Rbar = np.sqrt(rbar * rbar + z * z)
        d = rbar * rbar / (Rbar + az)  # Rbar - |z|, which does not cancel
        h = np.exp(0.5j * k * d)
        eR = ez * h * h  # e^{jk Rbar}
        i0 = d if k == 0.0 else (2.0 / k) * ez * h * h.imag  # (e^{jk Rbar} - e^{jk|z|}) / jk
        di0 = sigma * ez - (z / Rbar) * eR
        ix = iy = dix = diy = np.zeros_like(i0)
        if want_xy:
            v = radial(np.sqrt(d))
            cpsi, spsi = np.cos(psi[j] + th), np.sin(psi[j] + th)
            ix, iy, dix, diy = cpsi * v[:, 0], spsi * v[:, 0], cpsi * v[:, 1], spsi * v[:, 1]
        # PanelIntegrals order; d2I0/dn2 only when asked for, so that
        # neither the refinement nor the estimate follows a column not returned
        cols = [i0, ix, iy, di0, dix, diy]
        if want_hyper:
            cols.append(((rbar / Rbar) ** 2 / Rbar + jk * z * z / Rbar**2) * eR - jk * ez)
        return sign[j, None] * np.stack(cols, axis=-1)

    v, err, ok = quad_adaptive(f_theta, cuts[:-1], cuts[1:], tol)
    total.values += v
    if return_status:
        # an inner error e at every angle node moves the outer value by at
        # most (total angle width) * e, since |cos|, |sin| <= 1
        achieved = float(err + offsets[-1] * inner_err)
        return total, {"error": achieved, "converged": ok and inner_ok}
    return total
