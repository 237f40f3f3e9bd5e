"""Closed-surface identities: oracle-free checks of whole-mesh sums.

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

Only the forced analytic path is checked here.  ``method="auto"`` does not
meet these bounds on this mesh yet: at tol 1e-6, 1e-9 and 1e-12 it
misses the Gauss's-law bound at 16 of the 18 (point, tol) pairs, by up to
0.33, because the signed fan about an exterior projection builds
near-singular subtriangles that cancel only in exact arithmetic (ROADMAP
Open item 1); the auto half lands with that item.

At k > 0 neither Gauss's nor Green's identity has an exact counterpart in
the components helmpanel computes (the Helmholtz representation formula
needs the traces of a Helmholtz solution, and none is linear), so the
oracle pools stay the reference for I0 and the normal derivatives there.
"""

import math

import numpy as np
import pytest

from helmpanel import EvalRequest, Triangle3, evaluate

from helpers import jittered_icosphere

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
