"""Top-level evaluation: selection, accumulation, batch semantics."""

import math

import numpy as np
import pytest

from helmpanel import engine
from helmpanel.analytic import COMPONENTS, PanelIntegrals
from helmpanel.engine import (
    EvalRequest,
    K_Z_LIMIT,
    N_FALLBACK,
    SAMPLE_PROJECTIONS,
    evaluate,
    evaluate_batch,
    sample_field_point,
    sample_triangle,
)
from helmpanel.geometry import Triangle3, to_local_frame
from helmpanel.numquad import adaptive_oracle

from helpers import tri_rule

RNG = np.random.default_rng(60901)


def request(point, k=1.0, tol=1e-9, hyper=False, tri=None):
    return EvalRequest(
        triangle=tri if tri is not None else sample_triangle(),
        field_point=point,
        k=k,
        tol=tol,
        want_hypersingular=hyper,
    )


class TestValidation:
    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            request((0, 0, 1), tol=1e-16)
        with pytest.raises(ValueError):
            request((0, 0, 1), tol=0.5)

    def test_negative_wavenumber(self):
        with pytest.raises(ValueError):
            request((0, 0, 1), k=-1.0)

    def test_unknown_method(self, monkeypatch):
        # rejected before any geometry work
        def no_geometry(*args):
            raise AssertionError("geometry work before the method check")

        monkeypatch.setattr(engine, "to_local_frame", no_geometry)
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            evaluate(request((0, 0, 1)), method="magic")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vertex(self, bad):
        v = sample_triangle().vertices
        v[2, 1] = bad
        with pytest.raises(ValueError, match="vertices"):
            Triangle3(*v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_point(self, bad):
        with pytest.raises(ValueError, match="field point"):
            request((0.3, bad, 0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_wavenumber(self, bad):
        with pytest.raises(ValueError, match="k must"):
            request((0.3, 0.2, 0.1), k=bad)


class TestSelection:
    def test_far_field_numeric(self):
        tri = sample_triangle()
        z = 100.0 * tri.diameter
        rep = evaluate(request(tri.centroid + [0, 0, z], tol=1e-6))
        assert rep.method.kind == "numeric"
        assert rep.method.n_gauss <= 10
        # leading far-field form with the second-moment phase correction
        rule = tri_rule(8)
        nodes = rule.bary @ tri.vertices[:, :2]
        m2 = float(np.sum(rule.weights * np.sum((nodes - tri.centroid[:2]) ** 2, axis=1)))
        pred = tri.area * np.exp(1j * z) / z
        assert abs(rep.result.i0 - pred) <= 1e-3 * abs(pred)
        pred_corr = pred * (1 + (1j - 1 / z) * m2 / (2 * z))
        assert abs(rep.result.i0 - pred_corr) <= 1e-4 * abs(pred_corr)

    def test_near_singular_analytic(self):
        tri = sample_triangle()
        z = 1e-4 * tri.diameter
        rep = evaluate(request(sample_field_point(2, z), tol=1e-9))
        assert rep.method.kind == "analytic"
        verts2d, zloc = to_local_frame(tri, sample_field_point(2, z))
        ref = adaptive_oracle(verts2d, zloc, 1.0, tol=1e-13, components=("i0",))
        assert abs(rep.result.i0 - ref.i0) <= 1e-8

    def test_tolerance_levels_conform(self):
        tri = sample_triangle()
        x = sample_field_point(2, 0.01)
        verts2d, zloc = to_local_frame(tri, x)
        ref = adaptive_oracle(verts2d, zloc, 1.0, tol=1e-13, components=("i0",))
        loose = evaluate(request(x, tol=1e-3), method="analytic")
        tight = evaluate(request(x, tol=1e-12), method="analytic")
        assert abs(loose.result.i0 - ref.i0) <= 10 * 1e-3
        assert abs(tight.result.i0 - ref.i0) <= 10 * 1e-12
        # looser tolerance => fewer expansion terms
        assert loose.method.q_expansion < tight.method.q_expansion

    def test_analytic_gate_large_kz(self):
        # k|z| beyond the recursion-stability limit: numeric fallback
        x = sample_field_point(2, 2.5)
        rep = evaluate(request(x, k=1.0, tol=1e-9), method="analytic")
        assert rep.method.kind == "numeric"
        assert rep.method.n_gauss == N_FALLBACK
        assert "k|z|" in rep.method.note
        assert 2.5 * 1.0 > K_Z_LIMIT

    def test_analytic_gate_large_element(self):
        tri = Triangle3(
            np.array([0.0, 0.0, 0.0]),
            np.array([4.0, 0.0, 0.0]),
            np.array([1.5, 3.5, 0.0]),
        )
        rep = evaluate(
            request((1.5, 1.0, 0.01), tri=tri, k=1.0, tol=1e-9), method="analytic"
        )
        assert rep.method.kind == "numeric"
        assert "r_max" in rep.method.note

    def test_singular_on_element_uses_analytic(self):
        rep = evaluate(request(sample_field_point(2, 0.0), tol=1e-9))
        assert rep.method.kind == "analytic"
        assert rep.estimator.analytic_required

    def test_forced_numeric_order_skips_estimator(self):
        x = sample_field_point(2, 0.5)
        forced = evaluate(request(x), method="numeric", n_gauss=12)
        assert forced.estimator is None
        assert forced.method.n_gauss == 12
        # forcing only the path still runs the estimator for the order
        chosen = evaluate(request(x), method="numeric")
        assert chosen.estimator.q is not None
        assert chosen.method.n_gauss == chosen.estimator.n_gauss

    def test_forced_order_used_as_given(self):
        # N_MIN floors only the estimator's order; a forced order is exact
        x = sample_field_point(2, 0.55)
        n4 = evaluate(request(x), method="numeric", n_gauss=4)
        n8 = evaluate(request(x), method="numeric", n_gauss=8)
        assert n4.method.n_gauss == 4
        assert n4.result.i0 != n8.result.i0
        for bad in (0, -1, 2.0):
            with pytest.raises(ValueError, match="n_gauss"):
                evaluate(request(x), method="numeric", n_gauss=bad)

    def test_k_zero_reports_the_expansion_that_ran(self):
        # at k = 0 the kernel is 1/R: the order-0 expansion e = [1] runs,
        # not an economised table
        rep = evaluate(request(sample_field_point(2, 1e-3), k=0.0, tol=1e-9))
        assert rep.method.kind == "analytic"
        assert rep.method.q_expansion == 0
        assert rep.method.delta_x == 0.0
        k1 = evaluate(request(sample_field_point(2, 1e-3), k=1.0, tol=1e-9))
        assert k1.method.q_expansion > 0 and k1.method.delta_x > 0.0

    def test_n_gauss_only_with_forced_numeric(self):
        # an order for the numeric path is not silently applied to, or
        # ignored by, the other methods and their fallbacks
        x = sample_field_point(2, 0.55)
        for method in ("auto", "analytic"):
            with pytest.raises(ValueError, match="n_gauss"):
                evaluate(request(x), method=method, n_gauss=4)


class TestConsistency:
    def test_method_agreement_band(self):
        # moderate z: analytic and 32-point numeric agree
        for idx in (1, 2, 3, 4):
            x = sample_field_point(idx, 0.6)
            a = evaluate(request(x, tol=1e-12), method="analytic")
            n = evaluate(request(x, tol=1e-12), method="numeric", n_gauss=32)
            diff = abs(a.result.i0 - n.result.i0)
            assert diff <= 1e-9 * (1 + abs(a.result.i0))

    def test_subdivision_closure(self):
        # parent value equals the sum over its three centroid-split
        # children; child x/y components are rotated into the parent frame,
        # whose x-axis runs along v2 - v1 and y-axis along n x (v2 - v1)
        tri = sample_triangle()
        x = sample_field_point(2, 0.07)
        parent = evaluate(request(x, tol=1e-12, hyper=True), method="analytic")
        e1 = (tri.v2 - tri.v1) / np.linalg.norm(tri.v2 - tri.v1)
        e2 = np.cross(tri.normal, e1)
        total = np.zeros(7, dtype=complex)
        c = tri.centroid
        for a, b in ((tri.v1, tri.v2), (tri.v2, tri.v3), (tri.v3, tri.v1)):
            child_rep = evaluate(
                request(x, tol=1e-12, hyper=True, tri=Triangle3(a, b, c)),
                method="analytic",
            )
            e1c = (b - a) / np.linalg.norm(b - a)
            psi = math.atan2(float(e1c @ e2), float(e1c @ e1))
            rot = np.array([[math.cos(psi), -math.sin(psi)], [math.sin(psi), math.cos(psi)]])
            part = child_rep.result.values.copy()
            part[1:3] = rot @ part[1:3]  # (ix, iy)
            part[4:6] = rot @ part[4:6]  # (dix_dn, diy_dn)
            total += part
        total = PanelIntegrals(total)
        for name in COMPONENTS:
            got = getattr(total, name)
            want = getattr(parent.result, name)
            assert abs(got - want) <= 1e-10 * (1 + abs(want)), name

    def test_rigid_motion_invariance(self):
        from helpers import rigid_motion

        tri = sample_triangle()
        x = sample_field_point(2, 0.3)
        base = evaluate(request(x, tol=1e-12), method="analytic").result
        for _ in range(5):
            q, t = rigid_motion(RNG)
            tri_m = Triangle3(q @ tri.v1 + t, q @ tri.v2 + t, q @ tri.v3 + t)
            moved = evaluate(
                request(q @ x + t, tri=tri_m, tol=1e-12), method="analytic"
            ).result
            assert abs(moved.i0 - base.i0) <= 1e-12 * (1 + abs(base.i0))
            assert abs(moved.di0_dn - base.di0_dn) <= 1e-12 * (1 + abs(base.di0_dn))
            m2 = abs(moved.ix) ** 2 + abs(moved.iy) ** 2
            b2 = abs(base.ix) ** 2 + abs(base.iy) ** 2
            assert m2 == pytest.approx(b2, rel=1e-12)

    def test_in_plane_point_snaps_to_positive_side(self):
        # a rotated in-plane point lands at z ~ +-1e-17; the roundoff sign
        # must not pick the one-sided limit of dI0/dn (a 2 pi jump)
        from helpers import rigid_motion

        tri = sample_triangle()
        x = sample_field_point(2, 0.0)
        base = evaluate(request(x, tol=1e-9), method="analytic")
        assert base.z == 0.0
        for _ in range(50):
            q, t = rigid_motion(RNG)
            tri_m = Triangle3(q @ tri.v1 + t, q @ tri.v2 + t, q @ tri.v3 + t)
            moved = evaluate(request(q @ x + t, tri=tri_m, tol=1e-9), method="analytic")
            assert moved.z == 0.0 and math.copysign(1.0, moved.z) == 1.0
            diff = abs(moved.result.di0_dn - base.result.di0_dn)
            assert diff <= 1e-10 * (1 + abs(base.result.di0_dn))

    def test_snap_threshold_on_heights_below_the_element(self):
        # |z| <= BOUNDARY_TOL_REL * diameter counts as +0.0 even when the
        # point really lies below; beyond it the sign and the side stay
        tri = sample_triangle()
        diam = max(np.linalg.norm(tri.v2 - tri.v1), np.linalg.norm(tri.v3 - tri.v2), np.linalg.norm(tri.v1 - tri.v3))
        base = evaluate(request(sample_field_point(2, 0.0), tol=1e-9), method="analytic").result
        inside = evaluate(request(sample_field_point(2, -0.5e-12 * diam), tol=1e-9), method="analytic")
        assert inside.z == 0.0 and math.copysign(1.0, inside.z) == 1.0
        assert inside.result.di0_dn == base.di0_dn
        z_out = -2e-12 * diam
        outside = evaluate(request(sample_field_point(2, z_out), tol=1e-9), method="analytic")
        assert outside.z == z_out
        assert abs(outside.result.di0_dn + base.di0_dn) <= 1e-9 * (1 + abs(base.di0_dn))

    def test_z_symmetry(self):
        up = evaluate(request(sample_field_point(2, 0.4), tol=1e-12), method="analytic")
        dn = evaluate(request(sample_field_point(2, -0.4), tol=1e-12), method="analytic")
        assert up.result.i0 == dn.result.i0
        assert up.result.di0_dn == -dn.result.di0_dn

    def test_reciprocity_smoke(self):
        # int_A int_B G dA dB is symmetric in the two panels; B hovers
        # just above A so every evaluation runs the near-field machinery
        tri_a = sample_triangle()
        shift = np.array([0.05, 0.03, 0.35])
        tri_b = Triangle3(tri_a.v1 + shift, tri_a.v2 + shift, tri_a.v3 + shift)
        rule = tri_rule(10)

        def coupling(src, obs):
            nodes3 = rule.bary @ obs.vertices
            area = obs.area
            total = 0.0 + 0.0j
            for lam, w in zip(nodes3, rule.weights):
                rep = evaluate(request(lam, tri=src, tol=1e-12), method="auto")
                total += w * rep.result.i0
            return area * total

        ab = coupling(tri_a, tri_b)
        ba = coupling(tri_b, tri_a)
        assert abs(ab - ba) <= 1e-9 * (1 + abs(ab))


class TestBatch:
    def test_empty(self):
        assert evaluate_batch([]) == []

    def test_four_points_methods(self):
        reqs = [
            request(sample_field_point(i, 0.01 if i < 4 else 5.0))
            for i in (1, 2, 3, 4)
        ]
        reps = evaluate_batch(reqs)
        assert [r.method.kind for r in reps] == [
            "analytic",
            "analytic",
            "analytic",
            "numeric",
        ]

    def test_permutation_determinism(self):
        reqs = [request(sample_field_point(i, 0.2)) for i in (1, 2, 3, 4)]
        fwd = evaluate_batch(reqs)
        rev = evaluate_batch(reqs[::-1])
        for a, b in zip(fwd, rev[::-1]):
            assert a.result.i0 == b.result.i0

    def test_non_finite_record_keeps_batch_alive(self):
        nan_point = request(sample_field_point(2, 0.5))
        nan_point.field_point[2] = np.nan  # changed after the request was checked
        with pytest.raises(ValueError, match="read-only"):
            nan_point.triangle.v2[0] = np.inf  # the triangle cannot be changed
        reps = evaluate_batch([nan_point, request(sample_field_point(2, 0.5))])
        assert reps[0].error.startswith("ValueError: field point")
        assert reps[1].error is None


class TestSampleGeometry:
    def test_projection_classes(self):
        tri = sample_triangle()
        verts2d, _ = to_local_frame(tri, sample_field_point(1, 1.0))
        from helmpanel.geometry import radial_extents

        assert radial_extents(verts2d).r_min == 0.0  # on a vertex
        verts2d, _ = to_local_frame(tri, sample_field_point(4, 1.0))
        assert radial_extents(verts2d).r_min > 0.1  # outside

    def test_analytic_admissible_at_k1(self):
        # every sample projection keeps k * r_max below pi/2 at k = 1
        tri = sample_triangle()
        for idx in SAMPLE_PROJECTIONS:
            verts2d, _ = to_local_frame(tri, sample_field_point(idx, 0.5))
            from helmpanel.geometry import radial_extents

            assert radial_extents(verts2d).r_max < math.pi / 2
