"""Top-level evaluation: validation, selection, accumulation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helmpanel import engine, geometry, numquad
from helmpanel.analytic import COMPONENTS, PanelIntegrals, assemble, evaluate_ref
from helmpanel.engine import (
    EvalRequest,
    K_Z_LIMIT,
    N_FALLBACK,
    SAMPLE_PROJECTIONS,
    evaluate,
    sample_field_point,
    sample_triangle,
)
from helmpanel.expapprox import select_approx
from helmpanel.geometry import Triangle3, to_local_frame
from helmpanel.numquad import adaptive_oracle
from helmpanel.panelrule import panel_order

from helpers import radii, tri_rule

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
        with pytest.raises(ValueError, match="triangle vertex v3 must be finite and real"):
            Triangle3(*v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_point(self, bad):
        with pytest.raises(ValueError, match="field point"):
            request((0.3, bad, 0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_wavenumber(self, bad):
        with pytest.raises(ValueError, match="k must"):
            request((0.3, 0.2, 0.1), k=bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
    def test_bool_wavenumber(self, bad):
        # a bool is not a wavenumber, as it is not a Gauss order
        with pytest.raises(ValueError, match="k must"):
            request((0.3, 0.2, 0.1), k=bad)

    @pytest.mark.parametrize("point", [(0.3, 0.2), (0.3, 0.2, 0.1, 0.0), [[0.3, 0.2, 0.1]]])
    def test_field_point_shape(self, point):
        with pytest.raises(ValueError, match=r"field point must have shape \(3,\)"):
            request(point)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_vertex_shape(self, dim):
        v = np.eye(4)[:3, :dim] + [0.0, 0.5, 0.0, 0.0][:dim]
        with pytest.raises(ValueError, match=r"vertex v1 must have shape \(3,\)"):
            Triangle3(*v)

    def test_field_point_changed_after_construction(self):
        # the request copied its checked point when built: the point it
        # returns and its triangle are read-only, so evaluate runs on both
        # as they were checked
        req = request(sample_field_point(2, 0.5))
        with pytest.raises(ValueError, match="read-only"):
            req.field_point[2] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            req.triangle.v2[0] = np.inf  # the triangle cannot be changed
        assert evaluate(req).z == 0.5

    def test_caller_edit_of_its_point_does_not_reach_the_request(self):
        x = sample_field_point(2, 0.1)
        req = request(x)
        want = evaluate(req).result.values.tobytes()
        x[2] = 0.5
        assert req.field_point.tolist() == [1.4 / 3.0, 0.3, 0.1]
        rep = evaluate(req)
        assert rep.z == 0.1 and rep.result.values.tobytes() == want

    @pytest.mark.parametrize("bad", ["no", None, 0, 1, 1.0, np.array([True])])
    def test_want_hypersingular_is_a_bool(self, bad):
        # a truthy string once returned seven components and None six
        with pytest.raises(ValueError, match="want_hypersingular must be a bool"):
            request((0.3, 0.2, 0.1), hyper=bad)

    @pytest.mark.parametrize("flag, n", [(np.True_, 7), (np.False_, 6), (True, 7), (False, 6)])
    def test_want_hypersingular_takes_a_numpy_bool(self, flag, n):
        req = request((0.3, 0.2, 0.1), hyper=flag)
        assert req.want_hypersingular is bool(flag)
        assert len(evaluate(req).result.values) == n

    def test_request_and_report_footprint(self):
        # a request holds its point in 24 packed bytes, a report its seven
        # values in one bytearray: under 150 and 325 bytes, where a (3,)
        # array and a (7,) array took about 184 and 351 (the numeric path at
        # a forced low order keeps the traced calls quick)
        tri = sample_triangle()
        points = np.array([sample_field_point(1 + i % 4, 0.01 * (1 + i % 10)) for i in range(1000)])
        reqs = [None] * len(points)
        reps = [None] * len(points)
        for x in points[:40]:
            evaluate(request(x, hyper=True, tri=tri), method="numeric", n_gauss=2)  # cached rule and method info
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, x in enumerate(points):
                reqs[i] = EvalRequest(tri, x, 1.0, 1e-9, True)
            per_request = (tracemalloc.get_traced_memory()[0] - before) / len(reqs)
            before = tracemalloc.get_traced_memory()[0]
            for i, req in enumerate(reqs):
                reps[i] = evaluate(req, method="numeric", n_gauss=2)
            per_report = (tracemalloc.get_traced_memory()[0] - before) / len(reps)
        finally:
            tracemalloc.stop()
        assert {len(rep.result.values) for rep in reps} == {7}
        assert per_request < 150
        assert per_report < 325

    @pytest.mark.parametrize(
        "field, value",
        [("triangle", None), ("field_point", (0.3, 0.2, 0.1)), ("k", 2.0), ("tol", 0.5),
         ("want_hypersingular", True)],
    )
    def test_fields_cannot_be_reassigned(self, field, value):
        # the fields were checked when the request was built
        req = request(sample_field_point(2, 0.5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(req, field, value)
        assert req.tol == 1e-9

    @pytest.mark.parametrize("field", ["triangle", "field_point", "_point", "k", "tol", "want_hypersingular"])
    def test_fields_cannot_be_deleted(self, field):
        req = request(sample_field_point(2, 0.5))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field {field!r}"):
            delattr(req, field)
        assert req.tol == 1e-9 and req.field_point.tolist() == [1.4 / 3.0, 0.3, 0.5]

    @pytest.mark.parametrize("z", [1e155, -1e155, math.nextafter(geometry.Z_MAX, math.inf)])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("method", ["auto", "numeric", "analytic"])
    def test_height_whose_square_overflows(self, z, k, method):
        # z = 1e155 over the sample triangle once returned NaN values on the
        # numeric path (n = 8) with a RuntimeWarning; the request itself is finite
        req = request((0.4, 0.3, z), k=k, tol=1e-6)
        with pytest.raises(ValueError, match="square"):
            evaluate(req, method)
        with pytest.raises(ValueError, match="square"):
            to_local_frame(req.triangle, (0.4, 0.3, z))

    @pytest.mark.parametrize("z", [1e154, -1e154, geometry.Z_MAX])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_largest_heights_evaluate(self, z, k):
        with np.errstate(all="raise", under="ignore"):  # subnormal dI/dn terms are fine
            rep = evaluate(request((0.4, 0.3, z), k=k, tol=1e-6, hyper=True))
        # far above the panel: the collapsed rule on the panel, not the fan
        assert rep.z == z and rep.method.kind == "panel" and rep.estimator is None
        assert np.isfinite(rep.result.values).all()
        assert abs(rep.result.i0) == pytest.approx(0.45 / abs(z), rel=1e-12)

    @pytest.mark.parametrize("index", [0, 5, -1])
    def test_unknown_sample_projection(self, index):
        with pytest.raises(ValueError, match=r"one of \[1, 2, 3, 4\]"):
            sample_field_point(index, 0.1)


class TestSelection:
    def test_far_field_numeric(self):
        # a far pair takes the rule on the panel itself: no walk, no estimator
        tri = sample_triangle()
        z = 100.0 * tri.diameter
        rep = evaluate(request(tri.centroid + [0, 0, z], tol=1e-6))
        assert rep.method.kind == "panel" and rep.estimator is None
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
        for bad in (0, -1, 2.0, True):
            with pytest.raises(ValueError, match="n_gauss"):
                evaluate(request(x), method="numeric", n_gauss=bad)

    def test_reports_share_one_frozen_method_info(self):
        # one MethodInfo per path, order and note, and one per expansion
        # entry: reports refer to it; the analytic-required selection is one
        # frozen instance too
        x, y = sample_field_point(2, 0.55), sample_field_point(2, 0.56)
        a, b = evaluate(request(x)), evaluate(request(y))
        assert a.method.kind == "numeric" and a.method.n_gauss == b.method.n_gauss
        assert a.method is b.method
        forced = evaluate(request(x), method="numeric", n_gauss=np.int64(a.method.n_gauss))
        assert forced.method is a.method and type(forced.method.n_gauss) is int
        c, d = evaluate(request(sample_field_point(1, 0.01))), evaluate(request(sample_field_point(3, 0.01)))
        assert c.method.kind == "analytic" and (c.method.q_expansion, c.method.delta_x) == (
            d.method.q_expansion, d.method.delta_x)
        assert c.method is d.method
        assert c.estimator is d.estimator and c.estimator.analytic_required
        for shared, field in ((a.method, "n_gauss"), (c.method, "note"), (c.estimator, "q")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(shared, field, None)

    def test_k_zero_reports_the_expansion_that_ran(self):
        # at k = 0 the kernel is 1/R: the order-0 expansion e = [1] runs,
        # not an economised table
        rep = evaluate(request(sample_field_point(2, 1e-3), k=0.0, tol=1e-9))
        assert rep.method.kind == "analytic"
        assert rep.method.q_expansion == 0
        assert rep.method.delta_x == 0.0
        k1 = evaluate(request(sample_field_point(2, 1e-3), k=1.0, tol=1e-9))
        assert k1.method.q_expansion > 0 and k1.method.delta_x > 0.0

    def test_one_expansion_per_request(self, monkeypatch):
        # outside the sample triangle at k = 0.7 the fan's subtriangles reach
        # 0.96 and 1.33, arguments in the pi/4 and pi/2 tiers: the request
        # still runs, and reports, the one entry that covers k * r_max, and
        # assemble's factor is applied once, to the signed, rotated sum
        k, tol = 0.7, 1e-9
        req = request(sample_field_point(4, 0.05), k=k, tol=tol, hyper=True)
        verts2d, z = to_local_frame(req.triangle, req.field_point)
        ext, fan = geometry.walk(verts2d, req.triangle.edges)
        assert len({select_approx(k, max(radii(sub)), tol).delta_x for sub in fan}) == 2
        calls = {"select_approx": 0, "assemble": 0}
        for name in calls:
            def counted(*args, fn=getattr(engine, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(engine, name, counted)
        rep = evaluate(req, method="analytic")
        assert calls == {"select_approx": 1, "assemble": 1}
        approx = select_approx(k, ext.r_max, tol)
        assert (rep.method.kind, rep.method.q_expansion, rep.method.delta_x) == ("analytic", approx.q, approx.delta_x)
        # the same entry, assembled per subtriangle and then rotated
        want = np.zeros(7, dtype=complex)
        for sub in fan:
            i0, ix, iy, di0, dix, diy, d2 = assemble(z, k, evaluate_ref(geometry.ref_params(sub, z), z, k, approx))
            c, s = sub.cos_psi, sub.sin_psi
            want += sub.sign * np.array([i0, c * ix - s * iy, s * ix + c * iy, di0, c * dix - s * diy,
                                         s * dix + c * diy, d2])
        assert np.max(np.abs(rep.result.values - want) / (1.0 + np.abs(want))) <= 1e-14

    def test_sample_projections_methods(self):
        near = [evaluate(request(sample_field_point(i, 0.01))) for i in (1, 2, 3)]
        far = evaluate(request(sample_field_point(4, 5.0)))
        assert [r.method.kind for r in near] == ["analytic"] * 3
        assert far.method.kind == "panel"

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

    def test_evaluation_order_independence(self):
        # no state carries over from one call to the next
        reqs = [request(sample_field_point(i, 0.2)) for i in (1, 2, 3, 4)]
        fwd = [evaluate(r).result.values for r in reqs]
        rev = [evaluate(r).result.values for r in reqs[::-1]]
        for a, b in zip(fwd, rev[::-1]):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_hypersingular_flag_keeps_the_other_six(self, k):
        # the expansion always forms all seven components; without the
        # flag the first six are returned as they are, bit for bit
        for proj in SAMPLE_PROJECTIONS:
            for z in (0.0, 1e-3, 0.05):
                x = sample_field_point(proj, z)
                full, six = (evaluate(request(x, k=k, hyper=h), method="analytic") for h in (True, False))
                assert full.method.kind == six.method.kind == "analytic"
                assert six.result.d2i0_dn2 is None and full.result.d2i0_dn2 is not None
                assert six.result.values.tobytes() == full.result.values[:6].tobytes()

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


class TestOneEdgeWalk:
    @pytest.mark.parametrize(
        "proj, z, k, method, kind, n",
        [
            (4, 0.5, 1.0, "auto", "numeric", None),  # estimator's order
            (4, 1.0, 1.0, "auto", "panel", None),  # 2.1 radii from the centroid: no walk
            (2, 1e-3, 1.0, "auto", "analytic", None),
            (1, 0.0, 2.0, "numeric", "numeric", N_FALLBACK),  # z = 0 jump term
            (4, 0.3, 1.0, "numeric", "numeric", 4),  # forced order
        ],
    )
    def test_each_path_walks_the_edges_once(self, monkeypatch, proj, z, k, method, kind, n):
        # evaluate makes the one walk and hands its fan on: neither the
        # polar rule, nor its jump term, nor the analytic path subdivides;
        # a far pair makes none
        walks = []
        walk = geometry.walk

        def counted(verts, edges):
            walks.append(1)
            return walk(verts, edges)

        def banned(*args):
            raise AssertionError("the fan was built twice")

        for mod in (engine, geometry):
            monkeypatch.setattr(mod, "walk", counted)
        for mod in (engine, numquad):
            monkeypatch.setattr(mod, "subdivide", banned)
        monkeypatch.setattr(engine, "radial_extents", banned)
        rep = evaluate(request(sample_field_point(proj, z), k=k), method=method, n_gauss=n)
        assert rep.method.kind == kind and len(walks) == (kind != "panel")


class TestInPlaneExterior:
    """Field points in the element plane, outside the element: analytic path."""

    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("depth", [0.1, 1e-2, 1e-4])
    def test_below_an_edge_meets_contract(self, depth, k):
        # below the edge y = 0 of the sample triangle; the polar rule at
        # Q = 1 missed I0 here by 14x to 6.7e8x its bound
        tri = sample_triangle()
        x = np.array([0.5, -depth, 0.0])
        verts2d, z = to_local_frame(tri, x)
        assert z == 0.0
        ref = adaptive_oracle(verts2d, 0.0, k, tol=1e-13, components=("i0",))
        for tol in (1e-6, 1e-9, 1e-12):
            rep = evaluate(request(x, k=k, tol=tol))
            assert abs(rep.result.i0 - ref.i0) <= 10 * tol
            assert abs(rep.result.di0_dn - ref.di0_dn) <= 100 * tol
            assert rep.method.kind == "analytic" and rep.estimator.analytic_required

    def test_flat_plate_block(self):
        # a 6 x 6 grid of split squares, collocation at the 72 centroids,
        # every point within 2.5 cells of a panel's centroid against that
        # panel: 2000 coplanar pairs, 1928 of them exterior (312 misses on
        # the polar rule at Q = 1)
        m, k, tol = 6, 1.0, 1e-9
        h = 1.0 / m
        panels = []
        for i in range(m):
            for j in range(m):
                a, b, c, d = (np.array([x, y, 0.0]) for x, y in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)))
                panels += [Triangle3(a * h, b * h, c * h), Triangle3(a * h, c * h, d * h)]
        points = [p.centroid for p in panels]
        pairs = [(p, x) for p in panels for x in points if np.linalg.norm(x - p.centroid) <= 2.5 * h]
        assert len(pairs) == 2000
        for panel, x in pairs:
            rep = evaluate(request(x, k=k, tol=tol, tri=panel))
            verts2d, z = to_local_frame(panel, x)
            ref = adaptive_oracle(verts2d, z, k, tol=1e-13, components=("i0",))
            assert abs(rep.result.i0 - ref.i0) <= 10 * tol
            assert abs(rep.result.di0_dn - ref.di0_dn) <= 100 * tol
            # the pairs the far gate admits take the rule on the panel, the rest the expansion
            far = panel_order(*geometry.centroid_distance(panel, verts2d, z), k, tol, False) is not None
            assert rep.method.kind == ("panel" if far else "analytic")


class TestJustAboveAnEdgeLine:
    """Projections just above an edge's line: alpha = |z|/S is 1 or within 1e-14 of it."""

    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("z", [0.01, 0.1])
    @pytest.mark.parametrize("offset", [1e-10, 1e-9])
    def test_forced_analytic_meets_contract(self, offset, z, k):
        # y = 0 is an edge of the sample triangle; on the sliver subtriangle
        # beside it alpha' = offset/S holds the digits alpha has lost, and
        # seed forms that cancelled there missed I0 by up to 200x, dI0/dn by
        # up to 200x and d2I0/dn2 by up to 3700x
        tol = 1e-12
        x = np.array([0.5, offset, z])
        rep = evaluate(request(x, k=k, tol=tol, hyper=True), method="analytic")
        verts2d, zloc = to_local_frame(sample_triangle(), x)
        ref = adaptive_oracle(verts2d, zloc, k, tol=1e-14, want_hyper=True)
        assert abs(rep.result.i0 - ref.i0) <= 10 * tol
        assert abs(rep.result.di0_dn - ref.di0_dn) <= 100 * tol
        assert abs(rep.result.d2i0_dn2 - ref.d2i0_dn2) <= 100 * tol * max(1.0, abs(ref.d2i0_dn2))


class TestInPlaneNearAnEdgeLine:
    """In-plane points within a few boundary tolerances of an edge's line.

    The walk drops a subtriangle only where the origin lies on its edge's
    line within the boundary tolerance, the rule of the inside test and the
    z snap; an angle test once dropped real subtriangles beside it too."""

    @pytest.mark.parametrize("method", ["auto", "analytic", "numeric"])
    @pytest.mark.parametrize("delta", [1.2e-12, 5e-12, 2.4e-11])
    def test_just_inside_an_edge_is_inside(self, delta, method):
        # inside the edge y = 0 beyond the boundary tolerance (1.08e-12 on the
        # sample triangle): dI0/dn is the full angle 2 pi, not the pi of a
        # point on the edge
        tol = 1e-12
        rep = evaluate(request(np.array([0.5, delta, 0.0]), tol=tol), method=method)
        assert abs(rep.result.di0_dn - 2.0 * math.pi) <= 100 * tol

    def test_beyond_an_end_meets_contract(self):
        # 300 seeded points 1e-12 to 1e-9 diameters off an edge's line of the
        # sample triangle, up to one edge length beyond either end: auto against
        # the oracle, at k = 1 and tol 1e-12
        rng = np.random.default_rng(45)
        tri, tol = sample_triangle(), 1e-12
        plane = [p[:2] for p in tri.vertices]
        for _ in range(300):
            i = int(rng.integers(3))
            a, e = plane[i], plane[(i + 1) % 3] - plane[i]
            t = rng.uniform(0.0, 1.0)
            t = 1.0 + t if rng.random() < 0.5 else -t
            normal = np.array([-e[1], e[0]]) / np.linalg.norm(e)
            off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -9.0) * tri.diameter
            x = np.array([*(a + t * e + off * normal), 0.0])
            rep = evaluate(request(x, tol=tol))
            verts2d, z = to_local_frame(tri, x)
            ref = adaptive_oracle(verts2d, z, 1.0, tol=tol / 100)
            assert abs(rep.result.i0 - ref.i0) <= 10 * tol, x
            assert abs(rep.result.di0_dn - ref.di0_dn) <= 100 * tol, x

    @pytest.mark.parametrize("method", ["auto", "analytic"])
    @pytest.mark.parametrize("k", [0.0, 0.5])
    def test_kept_subtriangle_at_theta_max(self, k, method):
        # just above the drop threshold (2e-12 here, r_max = 2) off the line
        # of the edge y = 0, beyond its end: the kept subtriangle's angle
        # rounds to atan(1e12), the edge of the tables' domain (THETA_MAX)
        tri = Triangle3(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), np.array([1.5, 0.5, 0.0]))
        x, tol = np.array([0.0, -(1.0 + 1e-5) * 2e-12, 0.0]), 1e-12
        rep = evaluate(request(x, k=k, tol=tol, tri=tri), method=method)
        verts2d, z = to_local_frame(tri, x)
        ref = adaptive_oracle(verts2d, z, k, tol=tol / 100)
        # auto serves the point, 2.9 radii from the centroid, by the rule on the panel
        assert rep.method.kind == ("panel" if method == "auto" else "analytic")
        assert abs(rep.result.i0 - ref.i0) <= 10 * tol
        assert abs(rep.result.di0_dn - ref.di0_dn) <= 100 * tol


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
