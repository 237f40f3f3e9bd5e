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
expansion/recursion machinery or with the signed fan of ``geometry.walk``.
Every component is a 1-D integral over the edges (closed radial integrals,
and Stokes' theorem for the x/y moments), each edge mapped by s = h sinh u
(h the field point's distance from its line).  ``reference.edge_integrand``
gives them on the u-ranges of all edges laid end to end, which one
round-based pass integrates from equal pieces that its first round accepts
(``kronrod.start_width``).  An edge whose line holds the projection within
the boundary tolerance of ``geometry.to_local_frame``'s z snap has only
x/y moments, in closed form where h = 0: the oracle's own rule, on the
longest edge alone, where ``geometry.walk`` takes the larger of it and
r_max, so the oracle still checks the walk about exterior points.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from . import kronrod
from .analytic import PanelIntegrals
from .expapprox import check_k
# ref_params and subdivide are bound here, unused, for the layer tracer of perfbench
from .geometry import BOUNDARY_TOL_REL, check_height, flag, integer, positive, real_array, ref_params, subdivide  # noqa: F401
# the oracle calls quad_adaptive through this binding, which the tracer wraps
from .kronrod import quad_adaptive
from .reference import edge_integrand, edge_line_moment


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
    1: a bad order is always a miss, which ``geometry.integer`` rejects.
    """
    n = integer(n, "n_gauss", 1)
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


@lru_cache(maxsize=None, typed=True)
def polar_rule(n: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The n-point Gauss rule as ``polar_nodes`` and ``polar_integrate`` read it.

    Returns (angle, rho^2, radial): the (x_g, w_g) pairs as Python floats
    for the angle nodes; the squared fractions rho = (x_g + 1) / 2 of the
    radial nodes along a ray; and an (n, 2) array whose columns are
    w_g rho / 2 and w_g rho^2 / 2, the radial weights of the 1- and the
    x/y-weighted integrals.  The cache is typed as ``gauss_rule``'s, so a
    bad order is always a miss that ``gauss_rule`` rejects.
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


def kernel_rows(r2: np.ndarray, z: float, k: float, m: int) -> tuple[np.ndarray, ...]:
    """The kernel at nodes of squared plane distance ``r2`` from the projection, height z, as m 1-D rows.

    Row 0 is G = e^{jkR}/R, R^2 = r2 + z^2; with m >= 2 row 1 is
    (dG/dz) / z = G (jk - 1/R) / R, and with m = 3 row 2 is d2G/dz2.  Each
    is a fresh complex array of len(r2), which ``polar_integrate`` and
    ``panelrule.panel_integrate`` reduce one by one: with an (m, len(r2))
    block written through row views and reduced by one matrix product, the
    far call took longer and the n = 50 fallback's calls took more fresh
    pages.  Rows 1 and 2 are formed in place, then G times each into a
    fresh array, which keeps the block's bits: NumPy's complex product is
    not symmetric in its bits, and in place it rounds a lone element apart.
    1/R is cast to complex once, so that each product of rows 0 and 1 has
    operands of one dtype (NumPy runs a real array times a complex one
    through a buffered casting loop, 7-9% of the call at 16 to 2 500
    nodes); a real x enters as (x, 0) either way, so the bits are the same.
    Row 2 keeps its real factors and their association on the real 1/R:
    1/R^3 in complex arithmetic would round otherwise.
    """
    R = np.sqrt(r2 + z * z)
    inv_r = 1.0 / R
    inv = inv_r.astype(complex)
    kR = np.multiply(R, k, out=R)  # R is not read again
    G = np.empty(len(r2), dtype=complex)  # e^{jkR}, as cos + j sin in place: the bits of np.exp
    np.cos(kR, out=G.real)
    np.sin(kR, out=G.imag)
    G *= inv
    if m == 1:
        return (G,)
    H = 1j * k - inv  # (dG/dR) / G, until it is turned into row 1 below
    if m > 2:
        D2 = H * H
        D2 += inv_r * inv_r
        D2 *= (z * inv_r) ** 2
        t = H * r2
        t *= inv_r**3
        D2 += t
        D2 = G * D2
    H *= inv
    H = G * H
    return (G, H) if m == 2 else (G, H, D2)


def polar_integrate(fan, z: float, k: float, n: int, want_hyper: bool = False) -> PanelIntegrals:
    """n x n Gauss quadrature of the panel integrals in polar coordinates.

    ``fan`` is the list of signed subtriangles about the projection
    (``geometry.walk`` or ``subdivide``); ``polar_nodes`` gives its rays.
    A fan of bare plane vertices carries their orientation: that of a
    clockwise order gives every component negated.
    The kernel rows G = e^{jkR}/R, (dG/dz) / z and, with ``want_hyper``,
    d2G/dz2 are evaluated at every node (``kernel_rows``), and each row is
    reduced on its own, never copied into a block: along each ray by
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
    A z that ``geometry.check_height`` rejects (not a real number, or |z|
    above about 1.34e154, whose square is not finite; it runs as a float),
    a k that ``expapprox.check_k`` rejects (not a real number, not finite
    or negative), a ``want_hyper`` that is not a bool (``geometry.flag``)
    or an n that ``gauss_rule`` rejects (through ``polar_rule``'s typed
    cache) is a ValueError.
    """
    z = check_height(z)
    k = check_k(k)
    want_hyper = flag(want_hyper, "want_hyper")
    r2, points, area = polar_nodes(fan, n, z)
    radial = polar_rule(n)[2]
    moments = np.concatenate((area[:, None], points * area[:, None]), axis=1, dtype=complex)  # area times 1, x, y
    out = np.zeros((3 if want_hyper else 2, 3), dtype=complex)  # (kernel row, 1 / x / y)
    for row, sums in zip(kernel_rows(r2, z, k, 1 if z == 0.0 else len(out)), out):
        # along each ray, then across the rays: the other order moved near_singular's d2G/dz2 by 3.7e-14 (1 + |v|)
        per_ray = row.reshape(len(area), n).dot(radial).T.dot(moments)  # (rho, rho^2) x (1, x, y)
        sums[0], sums[1:] = per_ray[0, 0], per_ray[1, 1:]
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

def adaptive_oracle(
    verts2d,
    z: float,
    k: float,
    tol: float = 1e-13,
    want_hyper: bool = False,
    components: tuple[str, ...] = ORACLE_COMPONENTS,
    return_status: bool = False,
):
    """Adaptive reference evaluation of the panel integrals, as 1-D integrals over the edges.

    The edge from vertex a to b, of length L and unit tangent t, has the
    in-plane normal nu = (t_y, -t_x), the distance d = a x t of the origin
    from its line (positive on the left; taken from the nearer end) and
    the arc length s from the foot, from a.t to b.t.  With h = hypot(d, z),
    R = sqrt(h^2 + s^2), D = R - |z|, E(x) = (e^{jx} - 1) / (jx) and
    sigma = sgn(z) (+1 at z = 0), the components are e^{jk|z|} times the
    sums over the edges of
      I0:        d int E(kD) / (R + |z|) ds,
      dI0/dn:    sigma d int (1 - jk|z| E) / (R (R + |z|)) ds,
      d2I0/dn2:  d int [jk (jk E |z|^2 / (R + |z|) - 1) + e^{jkD} / R] / R^2 ds,
      Ix, Iy:    nu int D E ds,
      dIx/dn, dIy/dn:  -nu int D (jk z E - sigma) / R ds (0 at z = 0):
    the closed radial integrals times the signed angle d ds / rho^2, and
    by Stokes' theorem the moments with the constants (e^{jk|z|} - 1)/(jk)
    and sigma e^{jk|z|}, which integrate to zero over the closed boundary,
    taken out.  An edge is taken in u, s = h sinh u (``edge_integrand``).
    Where h is 0 (or s/h overflows) only the moments remain, in closed
    form: D E = (e^{jk|s|} - 1) / (jk) (``edge_line_moment``), and with
    z != 0 their normal derivatives add nu sigma L (jk z E is below roundoff).
    An edge whose line holds the origin, |d| <= ``BOUNDARY_TOL_REL`` times
    the longest edge (``to_local_frame``'s z snap; the oracle's own rule,
    not ``geometry.walk``'s, which takes r_max where that is larger),
    keeps only its moments: its d is roundoff, which would add +-pi/2 to
    dI0/dn at z = 0.  With no edge left, as for a zero-area triangle,
    every component is exactly 0.  With the foot outside an edge, its
    u-width is one asinh of a ratio, not a difference of two that cancels
    far from a panel.

    The u-ranges of all edges, laid end to end, are integrated in one
    ``quad_adaptive`` pass, from equal pieces per range sized so that its
    first round accepts them; the result is e^{jk|z|} times its sums plus
    the closed-form moments.  In u the integrands are singular only where
    R = h cosh u is 0 or -|z|: d2I0/dn2 has poles at u = +-i pi/2, I0 and
    dI0/dn at u = +-i beta, beta = pi - arccos(|z| / h) >= pi/2, and the
    moments are entire.  A u-range is cut at the ``kronrod.start_width`` of
    the nearest pole among the requested components, taken with residue 1:
    bounds on the residues cost more integrand points than they save.  At
    most about ``kronrod.MAX_INTERVALS`` pieces start the pass, its
    interval cap, since a finer start could not be refined.

    ``verts2d`` are orientation-signed: a clockwise order negates every
    component.  ``components`` limits only the x/y-moment work: "ixy" and
    "dixy" each give the moments and their normal derivatives, and with
    neither the x/y entries are returned as 0; I0 and dI0/dn are always
    computed.  d2I0/dn2 is integrated only with ``want_hyper``, so
    otherwise it steers neither the refinement nor the estimate.
    Derivatives at z = 0 are one-sided limits from z > 0, matching the
    analytic convention: dI0/dn is the subtended angle and d2I0/dn2 the
    finite part.

    With ``return_status`` the error estimate and convergence flag are
    returned alongside the values.  The estimate also carries the pass's
    roundoff, 16 machine epsilons of the largest component's integral of
    |f| (``kronrod.quad_adaptive``), scaled by 1 + k r_max / 2 for the
    phases' rounding, plus 8 eps k|z| of the largest component for
    e^{jk|z|}'s.  So a converged call reports more than tol where a
    component is of order 1e2 or more (d2I0/dn2 just above a panel).
    A z that ``geometry.check_height`` rejects (z runs as a float), a k
    that ``expapprox.check_k`` rejects, a tol that ``geometry.positive``
    rejects, a name in ``components`` outside ORACLE_COMPONENTS, a
    ``want_hyper`` that is not a bool (``geometry.flag``) or vertices that
    are not finite real numbers of shape (3, 2) (``geometry.real_array``)
    are a ValueError.
    """
    z = check_height(z)
    k = check_k(k)
    tol = positive(tol, "tol")
    if not set(components) <= set(ORACLE_COMPONENTS):
        raise ValueError(f"components must be names among {ORACLE_COMPONENTS}, got {components!r}")
    want_hyper = flag(want_hyper, "want_hyper")
    verts = real_array(verts2d, (3, 2), "plane vertices")
    want_xy = "ixy" in components or "dixy" in components
    az = abs(z)
    sigma = 1.0 if z >= 0.0 else -1.0
    radii = [math.hypot(x, y) for x, y in verts]
    r_max = max(radii)
    nxt = verts[1:] + verts[:1]
    lengths = [math.dist(a, b) for a, b in zip(verts, nxt)]
    on_line = BOUNDARY_TOL_REL * max(lengths)  # an edge's line within this holds the origin
    n_comp = 7 if want_hyper else 6
    line = np.zeros(n_comp, dtype=complex)  # the moments of the in-plane edge lines
    # per u-range: its start and width, d (0 for moments only), h, h - |z| and nu
    ranges, kept = [], False
    for (ax, ay), ra, (bx, by), rb, length in zip(verts, radii, nxt, radii[1:] + radii[:1], lengths):
        if length == 0.0:
            continue
        tx, ty = (bx - ax) / length, (by - ay) / length
        d = ax * ty - ay * tx if ra <= rb else bx * ty - by * tx
        lo, hi = ax * tx + ay * ty, bx * tx + by * ty
        keep = abs(d) > on_line
        kept = kept or keep
        if not (keep or want_xy):
            continue
        h = math.hypot(d, z)
        if h > 0.0 and r_max / h < math.inf:  # u = asinh(s / h) is finite
            h_z = d * (d / (h + az))  # h - |z|, which does not cancel
            if lo * hi > 0.0:  # the foot outside the edge, where asinh(hi / h) - asinh(lo / h) cancels
                m = max(abs(lo), abs(hi))  # so that no product overflows
                p, q = abs(lo) / m, abs(hi) / m
                w = math.asinh(length * (p + q) / (q * math.hypot(h, lo) + p * math.hypot(h, hi)))
            else:
                w = math.asinh(hi / h) - math.asinh(lo / h)
            ranges.append((math.asinh(lo / h), w, d if keep else 0.0, h, h_z, ty, -tx))
        else:  # in the plane on the edge's line
            nu = np.array([ty, -tx])
            line[1:3] += nu * (edge_line_moment(hi, k) - edge_line_moment(lo, k))
            line[4:6] += nu * (sigma * (hi - lo) if z != 0.0 else 0.0)
    if not kept:
        total = PanelIntegrals(np.zeros(n_comp, dtype=complex))
        return (total, {"error": 0.0, "converged": True}) if return_status else total
    # a kept edge has h >= |d| > 1e-12 of the longest edge, so r_max / h is finite: a u-range
    span = sum(w for _, w, *_ in ranges)
    floor = span / kronrod.MAX_INTERVALS
    # with want_hyper every range's nearest pole is at pi/2: one width serves all
    limit = kronrod.start_width(0.5 * math.pi, tol, span) if want_hyper else None
    cuts, ends, table, offset = [], [], [], 0.0
    for u_lo, w, d, h, h_z, nu_x, nu_y in ranges:
        piece = limit or kronrod.start_width(math.pi - math.acos(az / h), tol, span)
        n = max(1, math.ceil(w / max(piece, floor)))
        cuts += [offset + w * i / n for i in range(n)]
        table.append((u_lo - offset, h, 2.0 * h, h_z, d, nu_x, nu_y))
        offset += w
        ends.append(offset)  # where the next range begins
    cuts, starts, table = np.array(cuts + [offset]), np.array(ends[:-1]), np.array(table).T
    v, err, ok = quad_adaptive(
        lambda x: edge_integrand(x, starts, table, z, k, want_xy, want_hyper), cuts[:-1], cuts[1:], tol
    )
    values = cmath.exp(1j * k * az) * (v + line)
    # the phases' rounding, 8 ulps of k r_max per node and of k|z| on the sum
    err = err * (1.0 + 0.5 * k * r_max) + 8.0 * math.ulp(1.0) * k * az * max(map(abs, values.tolist()))
    total = PanelIntegrals(values)
    return (total, {"error": err, "converged": ok}) if return_status else total
