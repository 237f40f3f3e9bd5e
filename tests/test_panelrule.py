"""The collapsed Gauss rule on the panel, which serves auto's far pairs (``helmpanel.panelrule``)."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from helmpanel import engine
from helmpanel.engine import EvalRequest, evaluate, sample_triangle
from helmpanel.geometry import Triangle3, to_local_frame
from helmpanel.numquad import adaptive_oracle
from helmpanel.panelrule import GATE_RATIO, N_PANEL_MAX, panel_integrate, panel_order, panel_rule

from helpers import KERNEL_ROUNDINGS, kernel_closed_forms, tri_rule

SPEC = importlib.util.spec_from_file_location("far_pairs", Path(__file__).resolve().parents[1] / "bench" / "far_pairs.py")
far_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(far_pairs)

# bench/auto_random.py's yardsticks: 10 tol for I0, Ix, Iy, 100 tol for the
# normal derivatives, 100 tol max(1, |v|) for d2I0/dn2
FACTORS = np.array([10.0, 10.0, 10.0, 100.0, 100.0, 100.0, 100.0])


def bounds(ref: np.ndarray, tol: float) -> np.ndarray:
    b = FACTORS * tol
    b[6] *= max(1.0, abs(ref[6]))
    return b


def test_rule_is_exact_to_degree_2n_minus_2():
    # the Jacobian u costs one degree in u: x^a y^b with a + b <= 2n - 2 integrates exactly
    v = np.array([[0.3, -0.2], [1.4, 0.1], [0.2, 1.1]])
    ref_rule = tri_rule(12)
    ref_nodes = ref_rule.bary @ v
    area = 0.5 * ((v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0]))
    for n in (1, 2, 3, 5, 8):
        quad, weights = panel_rule(n)
        assert quad.shape == (n * n, 6) and weights.shape == (n * n, 4)
        assert not quad.flags.writeable and not weights.flags.writeable
        lam = weights[:, 1:].real / weights[:, :1].real
        nodes = lam @ v
        w = weights[:, 0].real
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        for a in range(2 * n - 1):
            for b in range(2 * n - 1 - a):
                got = area * np.dot(w, nodes[:, 0] ** a * nodes[:, 1] ** b)
                want = area * np.dot(ref_rule.weights, ref_nodes[:, 0] ** a * ref_nodes[:, 1] ** b)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("z", [0.0, 0.7, -2.0])
@pytest.mark.parametrize("hyper", [False, True])
def test_rule_agrees_with_the_oracle_at_a_high_order(z, hyper):
    # every component, weights 1, x and y, both signs of z and the plane, to roundoff
    verts = [(1.5, 2.0), (2.6, 2.0), (1.9, 2.9)]
    values = panel_integrate(verts, z, 3.0, 30, 0.495, hyper).values
    ref = adaptive_oracle(verts, z, 3.0, tol=1e-14, want_hyper=hyper).values
    assert len(values) == (7 if hyper else 6)
    assert np.max(np.abs(values - ref)) <= 1e-13


@pytest.mark.parametrize("hyper", [False, True])
@pytest.mark.parametrize("k", [0.0, 0.9, 20.0])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_integrate_is_the_rule_summed_node_by_node(n, k, hyper):
    # panel_integrate against the sum, node by node, of the closed-form
    # kernel (helpers.kernel_closed_forms) over panel_rule(n)'s own nodes
    # and weights, at the squared distances the rule forms (its products
    # times the vertices' Gram entries, the same doubles).  Per component,
    # the bound is eps (2 KERNEL_ROUNDINGS[row] + N + 12) area |f| times
    # sum_i mu_i size_i: f is 1, or z for the first derivatives, mu_i the
    # node's weight w (for a moment the sum of |w l_j x_j| over the three
    # vertices) and size_i the magnitude sum of the kernel row, which
    # bounds its value.  The roundings: the kernel rows per node (both
    # sides); the rule's complex dot product over the N = n^2 nodes (N - 1
    # additions and one product per part); its vertex combination, area
    # and z (at most 5); the reference's moment weight (3), its product
    # with the kernel value (1), the exactly rounded fsum (1), area and z
    # (2).  The per-part count times sqrt(2) eps / 2 stays below eps.
    tri = sample_triangle()
    quad, weights = panel_rule(n)
    eps = np.finfo(float).eps
    rows = (0, 0, 0, 1, 1, 1, 2)[: 7 if hyper else 6]
    for x in ((0.4, 0.3, 2.5), (3.0, -1.0, 0.0), (-2.0, 1.5, -0.7)):
        verts2d, z = to_local_frame(tri, x)
        (ax, ay), (bx, by), (cx, cy) = verts2d
        gram = (ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy, ax * bx + ay * by, ax * cx + ay * cy,
                bx * cx + by * cy)
        terms, scale = [[] for _ in rows], [0.0 for _ in rows]
        for r2, (w, w1, w2, w3) in zip(quad.dot(gram).tolist(), weights.real.tolist()):
            kernel, sizes = kernel_closed_forms(r2, z, k)
            mu = (w, w1 * ax + w2 * bx + w3 * cx, w1 * ay + w2 * by + w3 * cy)
            mags = (w, abs(w1 * ax) + abs(w2 * bx) + abs(w3 * cx), abs(w1 * ay) + abs(w2 * by) + abs(w3 * cy))
            for c, row in enumerate(rows):
                terms[c].append(mu[c % 3] * kernel[row])
                scale[c] += mags[c % 3] * sizes[row]
        factor = [tri.area if row != 1 else -z * tri.area for row in rows]
        ref = np.array([f * complex(math.fsum(t.real for t in ts), math.fsum(t.imag for t in ts))
                        for f, ts in zip(factor, terms)])
        bound = np.array([eps * (2 * KERNEL_ROUNDINGS[row] + n * n + 12) * abs(f) * m
                          for row, f, m in zip(rows, factor, scale)])
        got = panel_integrate(verts2d, z, k, n, tri.area, hyper).values
        assert len(got) == len(rows)
        assert np.all(np.abs(got - ref) <= bound), (x, np.abs(got - ref) / bound)


def test_gate_refuses_near_points_and_high_orders():
    # D <= sqrt(2) r leaves no ellipse; an order past N_PANEL_MAX goes to the fan
    assert panel_order(math.sqrt(2.0), 1.0, 1.0, 0.0, 1e-6, False) is None
    assert panel_order(1.0, 1.0, 1.0, 0.0, 1e-6, False) is None
    assert panel_order(1.5, 1.0, 1.0, 0.0, 1e-15, True) is None
    assert panel_order(1.5, 1.0, 1.0, 0.0, 1e-2, False) is not None
    # a phase of 1e5 radians across the panel is no far pair
    assert panel_order(100.0, 1.0, 1.0, 1e5, 1e-6, False) is None
    # the order grows with tol's digits, k and closeness, and with d2I0/dn2
    orders = [panel_order(3.0, 1.0, 1.0, k, tol, hyper) for k, tol, hyper in
              [(0.0, 1e-6, False), (0.0, 1e-12, False), (4.0, 1e-12, False), (4.0, 1e-12, True)]]
    assert orders == sorted(orders) and orders[0] < orders[-1] <= N_PANEL_MAX


@pytest.mark.parametrize("k, tol, hyper", [(0.0, 1e-2, False), (1.0, 1e-6, True), (4.0, 1e-12, False)])
def test_engine_gate_agrees_with_the_order_at_the_boundary(k, tol, hyper, monkeypatch):
    # above the sample triangle's centroid the engine's D is the height
    # itself (its frame is the world's, and the centroid is (x2 + x3, y3) / 3
    # as the block forms it); at D = sqrt(2) r, one ulp to either side and
    # farther out, evaluate takes the panel rule exactly where panel_order,
    # given the engine's own D, r and area, returns an order
    tri = sample_triangle()
    (x2, _, _), (x3, y3, _) = tri.v2.tolist(), tri.v3.tolist()
    cx, cy = (x2 + x3) / 3.0, y3 / 3.0
    radius = to_local_frame(tri, (cx, cy, 1.0), far=True)[3]
    edge = GATE_RATIO * radius
    kinds = []
    for height in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf), 4.0 * radius, 50.0 * radius):
        x = (cx, cy, height)
        verts2d, z, D, r, area = to_local_frame(tri, x, far=True)
        assert (D, r, area) == (height, radius, tri.area)
        n = panel_order(D, r, area, k, tol, hyper)
        rep = evaluate(EvalRequest(tri, x, k, tol, hyper))
        assert (rep.method.kind == "panel") == (n is not None), (height / radius, n, rep.method)
        assert rep.method.n_gauss == n or n is None
        kinds.append(rep.method.kind)
    assert "panel" not in kinds[:2] and kinds[-1] == "panel"
    # at and below sqrt(2) r the engine's one comparison refuses the pair:
    # panel_order is not called
    def no_order(*args):
        raise AssertionError("panel_order called on a near pair")

    monkeypatch.setattr(engine, "panel_order", no_order)
    for height in (math.nextafter(edge, 0.0), edge):
        assert evaluate(EvalRequest(tri, (cx, cy, height), k, tol, hyper)).method.kind != "panel"


@pytest.mark.parametrize("D, radius, area", [(1.9e154, 0.6, 0.45), (1e308, 1.0, 0.4), (3.0, 1e-150, 1e-300),
                                             (math.sqrt(2.0) * (1.0 + 2.0**-52), 1.0, 0.4)])
def test_order_at_extreme_scales_raises_nothing(D, radius, area):
    for k, tol, hyper in itertools.product((0.0, 1.0, 1e7), (1e-15, 1e-2), (False, True)):
        n = panel_order(D, radius, area, k, tol, hyper)
        assert n is None or 1 <= n <= N_PANEL_MAX


def grid_cases():
    """(triangle, field point, k, tol) on a grid of D / r, directions, k r and tol, about two triangles."""
    tris = [sample_triangle(), Triangle3([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.7, 0.15, 0.0])]
    for tri in tris:
        c = tri.centroid
        r = to_local_frame(tri, c, far=True)[3]
        for q, elevation, azimuth, kr, tol in itertools.product(
            (1.45, 2.0, 4.0, 16.0), (0.0, 0.5, 1.3), (0.3, 2.5), (0.0, 1.0, 4.0), (1e-6, 1e-9, 1e-12)
        ):
            d = np.array([math.cos(elevation) * math.cos(azimuth), math.cos(elevation) * math.sin(azimuth),
                          math.sin(elevation)])
            yield tri, c + q * r * d, kr / r, tol


def test_order_never_below_the_smallest_passing_order():
    # on every grid point the gate admits, the rule at the formula's order
    # meets the yardsticks in all seven components, and so no smaller order
    # is the first to pass
    served = 0
    for tri, x, k, tol in grid_cases():
        verts2d, z, D, r, area = to_local_frame(tri, x, far=True)
        n = panel_order(D, r, area, k, tol, True)
        if n is None:
            continue
        served += 1
        ref = adaptive_oracle(verts2d, z, k, tol=max(tol / 1000.0, 1e-15), want_hyper=True).values
        bound = bounds(ref, tol)
        passing = [m for m in range(1, n + 1)
                   if np.all(np.abs(panel_integrate(verts2d, z, k, m, tri.area, True).values - ref) <= bound)]
        assert passing and passing[-1] == n, (x, k, tol, n, passing)
    assert served >= 300


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("k", [0.5, 2.0, 5.0])
def test_far_pairs_draw_meets_every_yardstick(k, tol):
    # bench/far_pairs.py's draw: points 3 to 100 diameters from the sample
    # triangle's centroid, in random directions above it; auto with the
    # hypersingular term, against a full-component oracle call, misses in
    # no component (at k = 1 the fan missed I0 or dI0/dn on up to 96 of 200)
    tri = sample_triangle()
    verts, diam = tri.vertices, tri.diameter
    rng = np.random.default_rng([5, round(10 * k), round(-math.log10(tol))])
    for distance in far_pairs.DISTANCES:
        for x in far_pairs.points(8, distance * diam, verts.mean(axis=0), rng):
            rep = evaluate(EvalRequest(tri, x, k, tol, True))
            assert rep.method.kind == "panel" and rep.estimator is None
            ref = adaptive_oracle(verts[:, :2] - x[:2], x[2], k, tol=1e-14, want_hyper=True).values
            err = np.abs(rep.result.values - ref)
            assert np.all(err <= bounds(ref, tol)), (distance, x, err / bounds(ref, tol))


@pytest.mark.parametrize("k", [0.0, 1.0])
def test_far_field_table_meets_the_contract(k):
    # ROADMAP's far-field table: 30 directions above the sample triangle at
    # 10 to 1e9 diameters, auto at tol 1e-12 against the 16-point
    # symmetrized triangle rule; the fan's I0 was off by up to 4.3e2
    # (k = 0) and 2.8e8 (k = 1) relative
    tol = 1e-12
    tri = sample_triangle()
    rule = tri_rule(16)
    nodes = rule.bary @ tri.vertices
    c, diam = tri.centroid, tri.diameter
    rng = np.random.default_rng(23)
    for scale in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e9):
        for _ in range(30):
            azimuth, elevation = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 0.5 * math.pi)
            d = np.array([math.cos(elevation) * math.cos(azimuth), math.cos(elevation) * math.sin(azimuth),
                          math.sin(elevation)])
            x = c + scale * diam * d
            rep = evaluate(EvalRequest(tri, x, k, tol))
            assert rep.method.kind == "panel"
            R = np.linalg.norm(x - nodes, axis=1)
            G = np.exp(1j * k * R) / R
            z = x[2]  # the sample triangle lies in z = 0, normal +z
            i0 = tri.area * np.dot(rule.weights, G)
            di0 = -tri.area * np.dot(rule.weights, G * (1j * k - 1.0 / R) * z / R)
            assert abs(rep.result.i0 - i0) <= 10 * tol, (scale, x)
            assert abs(rep.result.di0_dn - di0) <= 100 * tol, (scale, x)
