"""Shared oracle helpers for the test suite.

Everything here evaluates defining integrals directly (adaptive quadrature,
Legendre recurrences, closed antiderivatives from first principles) and
stays independent of the recursion/expansion code paths it validates,
except ``k_rows``, which reads the per-order terms K_q out of the
production ``k_terms``, and ``table_rows``, which lays out an
``ElemTable``'s seeds and rows, for the tests to check them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from helmpanel import kronrod
from helmpanel.analytic import k_terms
from helmpanel.estimator import EstimatorGeom, _check_phi
from helmpanel.expapprox import ExpApprox
from helmpanel.geometry import SignedSubTriangle, subdivide
from helmpanel.numquad import gauss_rule, polar_nodes, quad_adaptive


def delta(alpha_p: float, th):
    return np.hypot(np.cos(th), alpha_p * np.sin(th))


def alpha_prime(alpha: float) -> float:
    """alpha' = sqrt((1 - alpha)(1 + alpha)), for tests that build a table at a bare alpha.

    ``build_table`` takes alpha' from its caller; production passes s/S,
    which keeps its digits where this form rounds to 0.
    """
    return math.sqrt((1.0 - alpha) * (1.0 + alpha))


def _adaptive_scaled(f, lo: float, hi: float, rel: float = 1e-13) -> float:
    """Adaptive quadrature with tolerance scaled to the integral size."""
    rough, _, _ = quad_adaptive(f, lo, hi, 1e-6)
    tol = rel * (1.0 + float(np.max(np.abs(rough))))
    v, _, ok = quad_adaptive(f, lo, hi, tol)
    assert ok
    return float(v[0].real)


def cumulative(f, limits, tol: float):
    """``int_0^L f`` for every ``L >= 0`` in ``limits``, from one adaptive pass over their gaps.

    The distinct limits, sorted, cut [0, max L] into gaps, one interval
    each at the start.  As in ``quad_adaptive``, each round integrates
    every pending interval in one ``f`` call (``kronrod.gk15``) and
    bisects those whose estimate exceeds tol * width / max L, until none
    does or the summed estimate is within tol; each limit's integral is
    the sum of the accepted intervals below it.  So every node of f serves
    every limit above it, and the limits cost only through their gaps.
    Returns (values (len(limits), ncomp), error_estimate, converged): the
    summed estimates, which bound every limit's error, plus 16 machine
    epsilons of the largest component's integral of |f| for the roundoff
    of the sums.  An estimate that is not finite, or a round that would
    leave more than ``kronrod.MAX_INTERVALS`` pending, ends the pass
    unconverged.
    """
    ends, index = np.unique(np.asarray(limits, dtype=float), return_inverse=True)
    lo, hi, gap = np.concatenate([[0.0], ends[:-1]]), ends, np.arange(len(ends))
    share = tol / ends[-1] if ends[-1] > 0.0 else 0.0
    accepted, error = [], 0.0
    while True:
        v, e, m = kronrod.gk15(f, lo, hi)
        estimate = error + float(e.sum())
        done = e <= share * (hi - lo)
        converged = bool(done.all()) or estimate <= tol
        if converged or not math.isfinite(estimate) or 2 * np.count_nonzero(~done) > kronrod.MAX_INTERVALS:
            accepted.append((gap, v, m))
            error = estimate
            break
        accepted.append((gap[done], v[done], m[done]))
        error += float(e[done].sum())
        lo, hi, gap = lo[~done], hi[~done], np.repeat(gap[~done], 2)
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    at, v, m = (np.concatenate(part) for part in zip(*accepted))
    sums = np.zeros((len(ends), v.shape[1]), dtype=v.dtype)
    np.add.at(sums, at, v)
    error += 16.0 * np.finfo(float).eps * float(m.sum(axis=0).max())
    return np.cumsum(sums, axis=0)[index.ravel()], error, converged


def oracle_pow_plain(alpha: float, lo: float, hi: float, n: int) -> float:
    ap = math.sqrt((1 - alpha) * (1 + alpha))

    def f(th):
        th = np.asarray(th)
        return ((delta(ap, th) / np.cos(th)) ** n)[:, None]

    return _adaptive_scaled(f, lo, hi)


def oracle_pow_tan(alpha: float, lo: float, hi: float, n: int) -> float:
    ap = math.sqrt((1 - alpha) * (1 + alpha))

    def f(th):
        th = np.asarray(th)
        return (((delta(ap, th) / np.cos(th)) ** n) * np.tan(th))[:, None]

    return _adaptive_scaled(f, lo, hi)


def oracle_pow(family: str, alpha: float, lo: float, hi: float, n: int) -> float:
    """``oracle_pow_plain`` or ``oracle_pow_tan``, by family name."""
    return (oracle_pow_plain if family == "plain" else oracle_pow_tan)(alpha, lo, hi, n)


# (family, s) of the six rows, in the order of each ElemTable.rows tuple:
# row (family, s) at order n integrates (p - alpha)^n p^(-s), times tan for "tan"
ROW_KINDS = (("plain", 0), ("plain", 1), ("plain", 2), ("plain", 3), ("tan", 0), ("tan", 1))


def table_rows(table) -> np.ndarray:
    """The six rows of ``table`` at orders 0 .. n_max, (6, n_max + 1); order 0 is the seeds."""
    (p3, p2, p1, p0), (t1, t0) = table.plain, table.tan
    return np.column_stack([(p0, p1, p2, p3, t0, t1), *table.rows])


def oracle_rows(alpha: float, lo: float, hi: float, n_max: int):
    """The six rows at orders 0 .. n_max and their scales, by adaptive quadrature.

    Row (family, s) at order n is the integral of (p - alpha)^n p^(-s)
    [tan]; its scale is the integral of (p + alpha)^n p^(-s) [|tan|], the
    size of the binomial sum over the powers of p that it equals.
    p - alpha is taken as alpha'^2 / (cos (Delta + alpha cos)), which does
    not cancel.  One vector quadrature takes all of them, each divided by
    1 + its rough size, so that the tolerance 1e-13 holds per component.
    Returns (values, scales), each (6, n_max + 1).
    """
    ap = math.sqrt((1 - alpha) * (1 + alpha))
    n = np.arange(n_max + 1.0)
    s = np.array([float(k) for _, k in ROW_KINDS])[:, None]
    is_tan = np.array([fam == "tan" for fam, _ in ROW_KINDS])[:, None]

    def f(th, norm=1.0):
        th = np.asarray(th)[:, None, None]
        c = np.cos(th)
        d = delta(ap, th)
        p = d / c
        w = np.where(is_tan, np.tan(th), 1.0) * p**-s
        vals = (ap * ap / (c * (d + alpha * c))) ** n * w
        scales = (p + alpha) ** n * np.abs(w)
        return np.concatenate([vals, scales], axis=1).reshape(len(th), -1) / norm

    rough, _, _ = quad_adaptive(f, lo, hi, 1e-6)
    norm = 1.0 + np.abs(rough.real)
    v, _, ok = quad_adaptive(lambda th: f(th, norm), lo, hi, 1e-13)
    assert ok
    values, scales = (v.real * norm).reshape(2, 6, n_max + 1)
    return values, scales


def powers_from_rows(rows: np.ndarray, alpha: float) -> list[tuple[str, int, float]]:
    """The power integrals reassembled from each row: (family, n - s, value).

    p^n = sum_m C(n, m) alpha^(n - m) (p - alpha)^m, so row (family, s)
    at orders 0 .. n gives family[n - s] = integral p^(n - s) [tan] by a
    sum of terms of one sign for the plain family.
    """
    out = []
    for (family, s), row in zip(ROW_KINDS, rows.tolist()):
        for n in range(len(row)):
            out.append((family, n - s, math.fsum(math.comb(n, m) * alpha ** (n - m) * row[m] for m in range(n + 1))))
    return out


# k_rows' attribute names, in k_terms' order of sums.
K_ROWS = ("k0", "kx", "ky", "dk0", "dkx", "dky", "d2k0")


def k_rows(geom, z: float, k: float, q_max: int, table) -> SimpleNamespace:
    """K_q, q = 0 .. q_max, as rows named by K_ROWS.

    Column q is ``k_terms`` at the unit coefficients e = delta_q (the
    ``terms`` of an ``ExpApprox`` holding them), whose sum is the single term K_q.
    """
    unit = [ExpApprox(0.0, 0.0, tuple(complex(m == q) for m in range(q_max + 1))) for q in range(q_max + 1)]
    cols = [k_terms(geom, z, k, table, e.terms) for e in unit]
    return SimpleNamespace(**dict(zip(K_ROWS, np.array(cols).real.T)))


def legendre_p(q: int, x: float) -> float:
    """P_q(x) by the three-term recurrence."""
    p0, p1 = 1.0, x
    if q == 0:
        return p0
    for m in range(2, q + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1


def legendre_remainder(t: float, z: float, r_mid: float, q_trunc: int) -> float:
    """1/R minus the order-q_trunc truncated Legendre expansion (float64)."""
    r_all = math.hypot(r_mid, z)
    cphi = r_mid / r_all
    r = r_mid * (1.0 - t)
    big_r = math.hypot(r, z)
    x = t * cphi
    total = 0.0
    xq = 1.0
    p0, p1 = 1.0, cphi
    for m in range(q_trunc + 1):
        if m == 0:
            pm = p0
        elif m == 1:
            pm = p1
        else:
            p0, p1 = p1, ((2 * m - 1) * cphi * p1 - (m - 1) * p0) / m
            pm = p1
        total += xq * pm
        xq *= x
    return 1.0 / big_r - total / r_all


def mp_remainder(t, z, r_mid, q_trunc, dps: int = 70):
    """Extended-precision truncation remainder (mpmath); exact to ~10^-dps."""
    from mpmath import mp, mpf, sqrt as msqrt

    mp.dps = dps
    r_all = msqrt(mpf(r_mid) ** 2 + mpf(z) ** 2)
    cphi = mpf(r_mid) / r_all
    t = mpf(t)
    r = mpf(r_mid) * (1 - t)
    big_r = msqrt(r * r + mpf(z) ** 2)
    x = t * cphi
    p0, p1 = mpf(1), cphi
    total = p0
    xq = mpf(1)
    if q_trunc >= 1:
        xq = x
        total += xq * p1
    for m in range(2, q_trunc + 1):
        p0, p1 = p1, ((2 * m - 1) * cphi * p1 - (m - 1) * p0) / m
        xq *= x
        total += xq * p1
    return float(1 / big_r - total / r_all)


def remainder_amplitude(t, z, r_mid, q_trunc) -> float:
    """Brute-force amplitude of the oscillatory truncation remainder.

    The remainder oscillates with the truncation order (it is the
    imaginary part of a phased complex series), so its pointwise value can
    sit near a null; the amplitude that the magnitude bound estimates is
    recovered as the max |remainder| over the adjacent truncation orders,
    rescaled to the common (t cos phi)^(Q+1) scale.
    """
    x = abs(t) * r_mid / math.hypot(r_mid, z)
    r0 = abs(mp_remainder(t, z, r_mid, q_trunc))
    rm = abs(mp_remainder(t, z, r_mid, q_trunc - 1)) * x
    rp = abs(mp_remainder(t, z, r_mid, q_trunc + 1)) / x if x > 0 else 0.0
    return float(np.max([r0, rm, rp]))  # a NaN propagates; max(r0, nan) would skip it


def rigid_motion(rng) -> tuple[np.ndarray, np.ndarray]:
    """Random proper rotation and translation."""
    a = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(a)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.normal(size=3) * 2.0


def random_planar_triangle(rng, scale: float = 1.0) -> np.ndarray:
    """Random well-conditioned planar triangle (3, 2)."""
    while True:
        v = rng.uniform(-1.0, 1.0, size=(3, 2)) * scale
        e = [np.linalg.norm(v[(i + 1) % 3] - v[i]) for i in range(3)]
        area = 0.5 * abs(
            (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
            - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        )
        if area > 0.08 * scale * scale and min(e) > 0.25 * scale:
            if area * 2.0 < 0:  # unreachable; keep orientation arbitrary
                v = v[::-1]
            return v


def canonical_sub(r1: float, r2: float, theta: float, sign: int = 1, psi1: float = 0.0) -> SignedSubTriangle:
    """The subtriangle with sides r1, r2 at angle Theta from polar angle psi1, by the atan route.

    phi = atan((r1 - r2 cos Theta) / (r2 sin Theta)) is the angle from the
    side r1 to the perpendicular foot on the far side, so s = r1 cos(phi),
    the foot lies at psi = psi1 + phi and the sides at theta_lo = -phi and
    theta_hi = Theta - phi from it: the canonical (r1, r2, Theta, psi1)
    formulas, the reference for the reference parameters ``geometry.walk``
    derives from each edge.
    """
    phi = math.atan((r1 - r2 * math.cos(theta)) / (r2 * math.sin(theta)))
    psi = psi1 + phi
    return SignedSubTriangle(sign, r1 * math.cos(phi), math.cos(psi), math.sin(psi), -phi, theta - phi)


def radii(sub) -> tuple[float, float]:
    """The subtriangle's two sides from the origin, s / cos(theta) at theta_lo and at theta_hi."""
    return sub.s / math.cos(sub.theta_lo), sub.s / math.cos(sub.theta_hi)


def sub_area(sub) -> float:
    """Unsigned area of a canonical subtriangle, from its two radii and angle."""
    r1, r2 = radii(sub)
    return 0.5 * r1 * r2 * math.sin(sub.theta_hi - sub.theta_lo)


def shoelace_area(verts2d) -> float:
    """Signed area of a planar polygon (positive when counter-clockwise)."""
    v = np.asarray(verts2d, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def epsilon_q(geom: EstimatorGeom, q: int) -> float:
    """Signed remainder estimate for the order-q truncation.

    Oscillatory in q; tracks the sign and magnitude of the true remainder
    of the Legendre expansion of 1/R evaluated at the given t.
    """
    _check_phi(geom.sin_phi)
    phi = math.atan2(geom.sin_phi, geom.cos_phi)
    w = geom.t * geom.cos_phi * complex(math.cos(phi), math.sin(phi))
    val = (
        (1.0 + 1.0j)
        / geom.R_mid
        * complex(math.cos(phi / 2.0), math.sin(phi / 2.0))
        / math.sqrt(math.pi * (q + 1) * geom.sin_phi)
        * w ** (q + 1)
        / (1.0 - w)
    )
    return val.imag


def e_q_bound_enclosed(geom: EstimatorGeom, q: int) -> float:
    """E_Q specialised to t = 1 (projection on the element)."""
    _check_phi(geom.sin_phi)
    return (
        (1.0 / geom.R_mid)
        * math.sqrt(2.0 / (math.pi * geom.sin_phi**3))
        * geom.cos_phi ** (q + 1)
        / math.sqrt(q + 1)
    )


def eval_complex(approx: ExpApprox, x) -> np.ndarray:
    """Evaluate the polynomial approximation of exp(jx)."""
    x = np.asarray(x, dtype=float)
    return np.polynomial.polynomial.polyval(x, approx.coeffs)


def sampled_errors(approx: ExpApprox, n: int = 10000) -> tuple[float, float, float]:
    """Max sampled errors (cos, sin, complex) on Chebyshev-distributed points."""
    j = np.arange(n)
    x = approx.delta_x * 0.5 * (1.0 - np.cos(math.pi * (j + 0.5) / n))
    pc = np.polynomial.polynomial.polyval(x, [e.real for e in approx.coeffs])
    ps = np.polynomial.polynomial.polyval(x, [e.imag for e in approx.coeffs])
    ec = np.max(np.abs(pc - np.cos(x)))
    es = np.max(np.abs(ps - np.sin(x)))
    ez = np.max(np.abs((pc + 1j * ps) - np.exp(1j * x)))
    return float(ec), float(es), float(ez)


@dataclass
class TriRule:
    """Symmetric quadrature rule on the unit triangle.

    ``bary`` holds barycentric node coordinates; weights are normalized to
    sum to 1, so the rule integrates as area * sum(w_i * f(node_i)).
    """

    bary: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=8)
def tri_rule(n: int = 16) -> TriRule:
    """Symmetrized collapsed-Gauss rule, exact to degree 2n - 2.

    Built from the n x n product Gauss rule on the square mapped by
    (a, b) -> (a, b(1-a)) and averaged over all six vertex permutations,
    which makes it fully symmetric with positive weights.
    """
    xg, wg = gauss_rule(n)
    a = 0.5 * (xg + 1.0)
    wa = 0.5 * wg
    A, B = np.meshgrid(a, a, indexing="ij")
    WA, WB = np.meshgrid(wa, wa, indexing="ij")
    x = A.ravel()
    y = (B * (1.0 - A)).ravel()
    w = (WA * WB * (1.0 - A)).ravel()
    w = w / w.sum()
    lam = np.column_stack([1.0 - x - y, x, y])
    barys = []
    weights = []
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        barys.append(lam[:, perm])
        weights.append(w / 6.0)
    return TriRule(
        bary=np.vstack(barys), weights=np.concatenate(weights), degree=2 * n - 2
    )


def flat_nodes(verts2d, n: int, z: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The polar n x n rule of ``polar_nodes`` node by node: (x, y, w).

    Each ray's far-side point p and area weight a become n nodes rho_g p
    with weights a w_g rho_g / 2, rho_g = (x_g + 1) / 2, so that
    sum(w * f(x, y)) approximates the area integral of f.
    """
    _, points, area = polar_nodes(subdivide(verts2d), n, z)
    xg, wg = gauss_rule(n)
    rho = 0.5 * (xg + 1.0)
    return np.outer(points[:, 0], rho).ravel(), np.outer(points[:, 1], rho).ravel(), np.outer(area, 0.5 * wg * rho).ravel()


def flat_kernel_sums(x, y, w, z: float, k: float, want_hyper: bool = False) -> np.ndarray:
    """The panel integrals as plain weighted sums over nodes (x, y, w).

    I0, Ix, Iy, dI0/dn, dIx/dn, dIy/dn and, with ``want_hyper``, d2I0/dn2
    of e^{jkR}/R, R^2 = x^2 + y^2 + z^2, in ``PanelIntegrals`` order,
    without any jump term at z = 0.
    """
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
    return np.array(vals)


# Roundings of each kernel row (G, (dG/dz) / z, d2G/dz2) along its longest
# chain of operations, counted over ``numquad.kernel_rows`` and
# ``kernel_closed_forms`` together (see the latter)
KERNEL_ROUNDINGS = (5, 14, 26)


def kernel_closed_forms(r2: float, z: float, k: float) -> tuple[list[complex], list[float]]:
    """G, (dG/dz) / z and d2G/dz2 at one node by their closed forms in ``cmath``, and the magnitude sums of their terms.

    R is taken as ``numquad.kernel_rows`` takes it (one square root of
    r2 + z^2, so the same double); then G = e^{jkR} / R,
    (dG/dz) / z = e^{jkR} (jkR - 1) / R^3 and
    d2G/dz2 = e^{jkR} ((2 - 2jkR - k^2 R^2) z^2 + (jkR - 1) r^2) / R^5.
    Each side's error is at most one eps per rounding along the longest
    chain of operations, relative to the sum of the magnitudes of the terms
    that chain combines, and one eps per component for each of cos, sin
    and e^{jx} (NumPy validates its float64 cos and sin to 1 ulp; glibc's
    are within 1 ulp).  Counted over both sides: G 3 + 2, row 1 7 + 7 and
    row 2 12 + 14 roundings (``KERNEL_ROUNDINGS``); a factor 2 covers the
    two components of a complex value and second-order terms, so
    2 KERNEL_ROUNDINGS[q] eps times the q-th magnitude sum bounds the
    distance of row q from its closed form at a node.
    """
    R = math.sqrt(r2 + z * z)
    e = cmath.exp(1j * (k * R))
    rows = [e / R, e * (1j * k * R - 1.0) / R**3,
            e * ((2.0 - 2j * k * R - (k * R) ** 2) * z * z + (1j * k * R - 1.0) * r2) / R**5]
    sizes = [1.0 / R, (k * R + 1.0) / R**3, (((k * R) ** 2 + 2.0 * k * R + 2.0) * z * z + (k * R + 1.0) * r2) / R**5]
    return rows, sizes


def jittered_icosphere(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed 320-face polyhedron: an icosahedron subdivided twice, its
    vertices projected to the unit sphere and then moved by a seeded
    normal jitter of a tenth of the mean edge.

    Returns (vertices (162, 3), faces (320, 3)), every face ordered so
    that (v2 - v1) x (v3 - v1) points outward.
    """
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(2):
        mid: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in mid:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                mid[key] = len(verts) - 1
            return mid[key]

        new = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new
    v = np.array(verts)
    f = np.array(faces)
    edges = np.concatenate([v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 1]], v[f[:, 0]] - v[f[:, 2]]])
    h = float(np.linalg.norm(edges, axis=1).mean())
    v = v + np.random.default_rng(seed).normal(scale=0.1 * h, size=v.shape)
    n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    inward = np.einsum("ij,ij->i", n, v[f].mean(axis=1)) < 0.0
    f[inward] = f[inward][:, ::-1]
    return v, f
