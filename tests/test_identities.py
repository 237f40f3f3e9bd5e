"""Oracle-free identities: whole-mesh sums on a closed surface, and per panel.

On a closed polyhedron with flat panels T_j, oriented by o_j = +1 where
the triangle's normal n_j points outward and -1 where it points inward,
these hold exactly for a field point x off the surface:

* Gauss's law (k = 0): sum_j o_j dI0/dn_j = -4 pi inside, 0 outside.
* Green's third identity (k = 0) for the harmonic u(y) = a.y + b:
  sum_j [ (a.n_out_j) I0_j - o_j ((a.p_j + b) dI0/dn_j
  + (a.e1_j) dIx/dn_j + (a.e2_j) dIy/dn_j) ] = 4 pi u(x) inside, 0
  outside, with p_j = x - z_j n_j the projection of x and (e1_j, e2_j)
  the triangle's axes, so it also checks the README frame convention.
* The moment identity (any k): sum_j o_j n_j x (Ix_j e1_j + Iy_j e2_j)
  = 0, the curl theorem for the gradient of e^{jkR} / (jk) (of R at
  k = 0), which is bounded at y = x.

Bounds are derived, not tuned.  Each identity is a sum of c_j times
panel values; the per-panel contract (10 tol on I0, 100 tol on dI0/dn,
here also 10 tol on Ix, Iy and 100 tol on dIx/dn, dIy/dn) bounds the
error of the sum by the sum of |c_j| times those bounds, at the requested
tol 1e-12.  The roundoff of a 320-term sum of values below 10 is some
1e-13, far below every bound.

The whole-mesh sums check the forced analytic path only.
``method="auto"`` does not meet these bounds on this mesh yet: at tol
1e-6, 1e-9 and 1e-12 it misses the Gauss's-law bound at 16 of the 18
(point, tol) pairs, by up to 0.33, because the signed fan about an
exterior projection builds near-singular subtriangles that cancel only
in exact arithmetic (ROADMAP Open item 1); the auto half lands with that
item.

At k > 0 the whole-mesh sums of Gauss's and Green's identities have no
exact counterpart in the components helmpanel computes (the Helmholtz
representation formula needs the traces of a Helmholtz solution, and none
is linear).  Each panel, though, has exact identities that turn its
components into edge integrals, with nu_e the outward in-plane normal of
edge e, d_e the signed distance of the projection from its line and
(x, y) measured from the projection:

* Stokes: (Ix, Iy) = sum_e nu_e int_e (e^{jkR} - 1)/(jk) dl, since
  (x, y) e^{jkR}/R is the in-plane gradient of e^{jkR}/(jk); its
  z-derivative gives (dIx/dn, dIy/dn) = -sum_e nu_e int_e e^{jkR} z/R dl.
* Helmholtz: d2I0/dn2 = -k^2 I0 - sum_e d_e int_e e^{jkR} (jk - 1/R)/R^2 dl,
  from (Laplacian + k^2) e^{jkR}/R = 0 off the field point and the
  divergence theorem on the in-plane Laplacian.

``test_panel_identities_at_k_positive`` checks them on the sample
triangle against 1-D adaptive quadrature of the edge integrals, each
edge split at the foot of the perpendicular from the projection, where
the integrand peaks; the oracle pools stay the reference for I0 and
dI0/dn, which these identities do not reach.  They share no code with
the analytic path or the polar rule; an edge rule that evaluates these
same edge integrals (ROADMAP Open item 11) would not be checked
independently by them.
"""

import math

import numpy as np
import pytest

from helmpanel import EvalRequest, Triangle3, evaluate
from helmpanel.engine import SAMPLE_PROJECTIONS, sample_field_point, sample_triangle
from helmpanel.geometry import to_local_frame
from helmpanel.numquad import quad_adaptive

from helpers import jittered_icosphere, shoelace_area

TOL = 1e-12
DEPTHS = (0.3, 0.03, 0.001)  # distance from the panel's centroid, in mean edges
POINTS = [(d, side) for d in DEPTHS for side in ("inside", "outside")]


@pytest.fixture(scope="module")
def mesh():
    """Panels with seeded random orientation and vertex order, their o_j,
    and the field points about the centroid of panel 0."""
    v, f = jittered_icosphere(2011)
    rng = np.random.default_rng(11)
    o = np.where(rng.random(len(f)) < 0.5, -1.0, 1.0)
    tris = []
    for face, oj in zip(f, o):
        face = np.roll(face if oj > 0 else face[::-1], rng.integers(3))
        tris.append(Triangle3(*v[face]))
    h = float(np.mean(np.linalg.norm(v[f] - v[np.roll(f, 1, axis=1)], axis=2)))
    n_out = o[0] * tris[0].normal
    points = {
        (d, side): tris[0].centroid + (d * h if side == "outside" else -d * h) * n_out
        for d, side in POINTS
    }
    return tris, o, points


def panel_values(tris, x, k):
    return [evaluate(EvalRequest(tri, x, k, TOL), method="analytic") for tri in tris]


@pytest.mark.parametrize("depth,side", POINTS)
def test_laplace_identities_forced_analytic(mesh, depth, side):
    tris, o, points = mesh
    x = points[depth, side]
    a, b = np.array([0.3, -0.7, 0.5]), 0.2
    inside = side == "inside"
    gauss = green = 0.0
    gauss_bound = green_bound = 0.0
    moment, moment_bound = np.zeros(3), np.zeros(3)
    for tri, oj, rep in zip(tris, o, panel_values(tris, x, 0.0)):
        r = rep.result
        p = x - rep.z * tri.normal
        c_i0 = a @ (oj * tri.normal)
        c_d = (a @ p + b, a @ tri.e1, a @ tri.e2)
        gauss += oj * r.di0_dn.real
        gauss_bound += 100 * TOL
        green += c_i0 * r.i0.real - oj * (c_d[0] * r.di0_dn.real + c_d[1] * r.dix_dn.real + c_d[2] * r.diy_dn.real)
        green_bound += 10 * TOL * abs(c_i0) + 100 * TOL * sum(map(abs, c_d))
        moment += oj * (r.ix.real * tri.e2 - r.iy.real * tri.e1)  # n x e1 = e2, n x e2 = -e1
        moment_bound += 10 * TOL * (np.abs(tri.e1) + np.abs(tri.e2))
    assert abs(gauss - (-4 * math.pi if inside else 0.0)) <= gauss_bound
    assert abs(green - (4 * math.pi * (a @ x + b) if inside else 0.0)) <= green_bound
    assert np.all(np.abs(moment) <= moment_bound)


@pytest.mark.parametrize("depth,side", POINTS)
def test_moment_identity_at_k1(mesh, depth, side):
    # forced analytic falls back to n = 50 quadrature on far panels
    # (k|z| > pi/2), so both paths enter the sum
    tris, o, points = mesh
    moment, moment_bound = np.zeros(3, dtype=complex), np.zeros(3)
    for tri, oj, rep in zip(tris, o, panel_values(tris, points[depth, side], 1.0)):
        moment += oj * (rep.result.ix * tri.e2 - rep.result.iy * tri.e1)
        moment_bound += 10 * TOL * (np.abs(tri.e1) + np.abs(tri.e2))
    assert np.all(np.abs(moment) <= moment_bound)


def edge_identities(verts2d, z, k):
    """(Ix, Iy, dIx/dn, dIy/dn, d2I0/dn2 + k^2 I0) from the panel's edge integrals."""
    orient = 1.0 if shoelace_area(verts2d) > 0 else -1.0
    out = np.zeros(5, dtype=complex)
    for a, b in zip(verts2d, np.roll(verts2d, -1, axis=0)):
        length = math.dist(a, b)
        u = (b - a) / length
        nu = orient * np.array([u[1], -u[0]])
        d = float(a @ nu)
        foot = min(max(-float(a @ u), 0.0), length)
        cuts = sorted(set([0.0, foot, length]))

        def f(t):
            t = np.asarray(t)
            x, y = a[0] + t * u[0], a[1] + t * u[1]
            r = np.sqrt(x * x + y * y + z * z)
            g = np.exp(1j * k * r)
            return np.stack([
                (np.sin(k * r) + 2j * np.sin(0.5 * k * r) ** 2) / k,  # (e^{jkR} - 1)/(jk)
                g * z / r,
                d * g * (1j * k - 1.0 / r) / (r * r),  # d = 0 on an edge through the projection
            ], axis=-1)

        v, _, ok = quad_adaptive(f, cuts[:-1], cuts[1:], 1e-13)
        assert ok
        out += [nu[0] * v[0], nu[1] * v[0], -nu[0] * v[1], -nu[1] * v[1], -v[2]]
    return out


@pytest.mark.parametrize("k", (0.5, 1.0))
def test_panel_identities_at_k_positive(k):
    """Stokes and Helmholtz per-panel identities on the sample triangle.

    Forced analytic at the four sample projections and z in {1e-3, 0.05,
    0.3}, and the forced n = 32 polar rule at z = 0.3.  Bounds are the
    per-panel contract at tol 1e-12: 10 tol on Ix, Iy, 100 tol on their
    normal derivatives and 100 tol max(1, |v|) on d2I0/dn2.
    """
    tri = sample_triangle()
    for idx in SAMPLE_PROJECTIONS:
        for z in (1e-3, 0.05, 0.3):
            x = sample_field_point(idx, z)
            verts2d, zl = to_local_frame(tri, x)
            want = edge_identities(verts2d, zl, k)
            req = EvalRequest(tri, x, k, TOL, True)
            reps = [evaluate(req, method="analytic")]
            assert reps[0].method.kind == "analytic", (idx, z)
            if z == 0.3:
                reps.append(evaluate(req, method="numeric", n_gauss=32))
            for rep in reps:
                r = rep.result
                got = [r.ix, r.iy, r.dix_dn, r.diy_dn, r.d2i0_dn2 + k * k * r.i0]
                d2 = r.d2i0_dn2
                bounds = [10 * TOL] * 2 + [100 * TOL] * 2 + [100 * TOL * max(1.0, abs(d2))]
                names = ("ix", "iy", "dix_dn", "diy_dn", "d2i0_dn2")
                for name, g, w, bound in zip(names, got, want, bounds):
                    assert abs(g - w) <= bound, (idx, z, rep.method.kind, name, abs(g - w))
