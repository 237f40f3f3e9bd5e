"""The collapsed Gauss rule on the panel, which serves auto's far pairs (``helmpanel.panelrule``)."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from helmpanel.engine import EvalRequest, evaluate, sample_triangle
from helmpanel.geometry import Triangle3, centroid_distance, to_local_frame
from helmpanel.numquad import adaptive_oracle
from helmpanel.panelrule import N_PANEL_MAX, panel_integrate, panel_order, panel_rule

from helpers import tri_rule

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
        r = centroid_distance(tri, *to_local_frame(tri, c))[1]
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
        verts2d, z = to_local_frame(tri, x)
        n = panel_order(*centroid_distance(tri, verts2d, z), k, tol, True)
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
