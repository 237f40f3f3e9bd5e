"""Geometry: frames, subdivision, radial extents, reference parameters."""

import math

import numpy as np
import pytest

from helmpanel.geometry import (
    BOUNDARY_TOL_REL,
    RadialExtents,
    Triangle3,
    radial_extents,
    ref_params,
    subdivide,
    to_local_frame,
)

from helpers import random_planar_triangle, rigid_motion, shoelace_area, sub_area

RNG = np.random.default_rng(20240817)


def tri3(*rows):
    return Triangle3(*[np.array(r, dtype=float) for r in rows])


class TestTriangle3:
    def test_construction(self):
        # validated when built, immutable, and its frame matches the
        # NumPy formulas for the documented conventions
        with pytest.raises(ValueError, match="vertices"):
            tri3((0, 0, 0), (1, math.nan, 0), (0, 1, 0))
        with pytest.raises(ValueError, match="vertices"):
            tri3((0, 0, 0), (1, 0, 0), (0, 1, math.inf))
        with pytest.raises(ValueError, match="degenerate"):
            tri3((0, 0, 0), (1, 1, 1), (3, 3, 3))
        src = np.array([0.0, 0.0, 0.0])
        tri = Triangle3(src, (1.0, 0.0, 0.0), (0.3, 0.8, 0.0))
        src[0] = 5.0  # the triangle holds a copy
        assert tri.v1[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            tri.v2[1] = 1.0
        with pytest.raises(AttributeError):
            tri.v1 = np.ones(3)
        with pytest.raises(AttributeError):
            tri.diameter = 2.0
        rng = np.random.default_rng(8)  # own stream: RNG feeds the tests below
        for _ in range(50):
            q, t = rigid_motion(rng)
            v = random_planar_triangle(rng, scale=float(10.0 ** rng.uniform(-2.0, 2.0)))
            v = np.column_stack([v, np.zeros(3)]) @ q.T + t
            tri = Triangle3(*v)
            frame = np.array([tri.e1, tri.e2, tri.normal])
            assert np.allclose(frame @ frame.T, np.eye(3), rtol=0.0, atol=1e-15)
            assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-14)
            cross = np.cross(v[1] - v[0], v[2] - v[0])
            assert np.allclose(tri.normal, cross / np.linalg.norm(cross), rtol=0.0, atol=1e-15)
            assert np.allclose(tri.e1, (v[1] - v[0]) / np.linalg.norm(v[1] - v[0]), rtol=0.0, atol=1e-15)
            diam = max(np.linalg.norm(v[i] - v[i - 1]) for i in range(3))
            assert tri.diameter == pytest.approx(diam, rel=1e-15)
            assert tri.area == pytest.approx(0.5 * np.linalg.norm(cross), rel=1e-15)


class TestLocalFrame:
    def test_already_in_frame(self):
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        verts2d, z = to_local_frame(tri, (0.0, 0.0, 1.0))
        assert z == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(verts2d, [[0, 0], [1, 0], [0.3, 0.8]], atol=1e-15)

    def test_round_trip(self):
        # local coordinates map back to the world vertices through the
        # documented axes: e1 along v2 - v1, n the normal and e2 = n x e1
        q, t = rigid_motion(np.random.default_rng(7))
        tri = tri3(*(q @ p + t for p in ((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))))
        x = q @ [0.2, 0.2, 0.5] + t
        verts2d, z = to_local_frame(tri, x)
        e1 = (tri.v2 - tri.v1) / np.linalg.norm(tri.v2 - tri.v1)
        n = tri.normal
        e2 = np.cross(n, e1)
        assert z == pytest.approx(0.5, abs=1e-12)
        for p, (a, b) in zip(tri.vertices, verts2d):
            assert np.allclose(x - z * n + a * e1 + b * e2, p, atol=1e-12)

    def test_rotation_orthonormal(self):
        # the world-to-local map is a rotation: it keeps every distance
        # among the vertices and the field point
        for _ in range(20):
            q, t = rigid_motion(RNG)
            tri = tri3(q @ [0, 0, 0] + t, q @ [1, 0, 0] + t, q @ [0.3, 0.8, 0] + t)
            x = t + q @ [0.1, 0.3, 0.7]
            verts2d, z = to_local_frame(tri, x)
            world = np.vstack([tri.vertices, x])
            local = np.vstack([np.column_stack([verts2d, np.zeros(3)]), [0.0, 0.0, z]])
            dist = lambda p: np.linalg.norm(p[:, None] - p[None], axis=-1)  # noqa: E731
            assert np.allclose(dist(local), dist(world), atol=1e-12)

    def test_rigid_motion_invariance_of_parameters(self):
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        x = np.array([0.4, 0.1, 0.25])
        verts0, z0 = to_local_frame(tri, x)
        subs0 = sorted(subdivide(verts0), key=lambda s: s.theta)
        for _ in range(25):
            q, t = rigid_motion(RNG)
            tri_m = Triangle3(q @ tri.v1 + t, q @ tri.v2 + t, q @ tri.v3 + t)
            verts, z = to_local_frame(tri_m, q @ x + t)
            assert z == pytest.approx(z0, abs=1e-12)
            subs = sorted(subdivide(verts), key=lambda s: s.theta)
            for a, b in zip(subs0, subs):
                assert a.sign == b.sign
                assert a.r1 == pytest.approx(b.r1, abs=1e-12)
                assert a.r2 == pytest.approx(b.r2, abs=1e-12)
                assert a.theta == pytest.approx(b.theta, abs=1e-12)

    def test_matches_numpy_construction(self):
        # the frame in float arithmetic against np.cross / np.linalg.norm
        # with the same conventions, over random poses, cyclic vertex
        # orders and translations up to 1e3 diameters
        for _ in range(200):
            planar = random_planar_triangle(RNG, scale=float(10.0 ** RNG.uniform(-2.0, 2.0)))
            diam = max(np.linalg.norm(planar[i] - planar[i - 1]) for i in range(3))
            q, _ = rigid_motion(RNG)
            shift = RNG.normal(size=3)
            shift *= diam * 10.0 ** RNG.uniform(-1.0, 3.0) / np.linalg.norm(shift)
            v = np.roll(np.column_stack([planar, np.zeros(3)]), int(RNG.integers(3)), axis=0) @ q.T + shift
            local = np.array([*RNG.uniform(-1.5, 1.5, 2), RNG.choice([0.0, RNG.uniform(-2.0, 2.0)])])
            x = q @ (local * diam) + shift
            verts2d, z = to_local_frame(Triangle3(*v), x)

            n = np.cross(v[1] - v[0], v[2] - v[0])
            n /= np.linalg.norm(n)
            e1 = (v[1] - v[0]) / np.linalg.norm(v[1] - v[0])
            rot = np.vstack([e1, np.cross(n, e1), n])
            z_ref = float(np.dot(x - v[0], n))
            scale = diam + np.linalg.norm(shift)
            assert abs(z - z_ref) <= 1e-13 * scale
            ref2d = (v - (x - z_ref * n)) @ rot[:2].T
            assert np.max(np.abs(verts2d - ref2d)) <= 1e-13 * scale

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            tri3((0, 0, 0), (1, 0, 0), (2, 0, 0))

    def test_normal_maps_to_plus_z(self):
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        verts2d, z = to_local_frame(tri, (0.2, 0.2, -0.4))
        # orientation preserved: planar triangle counter-clockwise, z signed
        assert shoelace_area(verts2d) > 0
        assert z == pytest.approx(-0.4, abs=1e-14)


class TestSubdivide:
    def test_origin_at_vertex(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
        subs = subdivide(verts)
        assert len(subs) == 1
        assert subs[0].sign == 1
        assert sub_area(subs[0]) == pytest.approx(shoelace_area(verts), rel=1e-13)

    def test_origin_inside(self):
        verts = np.array([[-0.3, -0.2], [0.8, -0.1], [0.1, 0.7]])
        subs = subdivide(verts)
        assert len(subs) == 3
        assert all(s.sign == 1 for s in subs)
        total = sum(s.sign * sub_area(s) for s in subs)
        assert total == pytest.approx(shoelace_area(verts), rel=1e-13)

    def test_origin_outside_mixed_signs(self):
        verts = np.array([[1.0, 0.5], [2.0, 0.6], [1.2, 1.5]])
        subs = subdivide(verts)
        assert {s.sign for s in subs} == {1, -1}
        total = sum(s.sign * sub_area(s) for s in subs)
        assert total == pytest.approx(shoelace_area(verts), rel=1e-12)

    def test_origin_on_edge_two_subtriangles(self):
        verts = np.array([[-0.5, 0.0], [0.7, 0.0], [0.1, 0.9]])
        subs = subdivide(verts)
        assert len(subs) == 2
        total = sum(s.sign * sub_area(s) for s in subs)
        assert total == pytest.approx(shoelace_area(verts), rel=1e-12)

    def test_signed_area_identity_random(self):
        # 1000 random origins inside and outside
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
        for _ in range(1000):
            origin = RNG.uniform(-2, 2, size=2)
            verts = base - origin
            subs = subdivide(verts)
            total = sum(s.sign * sub_area(s) for s in subs)
            assert total == pytest.approx(shoelace_area(verts), rel=1e-12, abs=1e-14)


class TestRadialExtents:
    def test_origin_inside(self):
        verts = np.array([[-0.3, -0.2], [0.8, -0.1], [0.1, 0.7]])
        ext = radial_extents(verts)
        assert ext.r_min == 0.0
        assert ext.r_max == pytest.approx(max(np.hypot(*v) for v in verts))

    def test_nearest_is_vertex(self):
        # origin at (2, 0) relative to triangle ((0,0),(1,0),(0,1));
        # farthest vertex is (0, 1) at distance sqrt(5)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) - [2.0, 0.0]
        ext = radial_extents(verts)
        assert ext.r_min == pytest.approx(1.0, abs=1e-14)
        assert ext.r_max == pytest.approx(math.sqrt(5.0), abs=1e-14)

    def test_nearest_is_edge_foot(self):
        # origin at (0.5, -1): foot of perpendicular on edge y=0
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) - [0.5, -1.0]
        ext = radial_extents(verts)
        assert ext.r_min == pytest.approx(1.0, abs=1e-14)
        assert ext.r_max == pytest.approx(math.sqrt(0.25 + 4.0), abs=1e-14)

    def test_boundary_tolerance(self):
        # a projection half the boundary tolerance outside an edge counts
        # as on the element; ten times that does not
        base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        gap = BOUNDARY_TOL_REL * math.sqrt(2.0)  # tolerance at this diameter
        inside = radial_extents(base - [0.5, -0.5 * gap])
        assert inside.r_min == 0.0
        outside = radial_extents(base - [0.5, -5.0 * gap])
        assert outside.r_min > 0.0
        assert outside.r_min == pytest.approx(5.0 * gap, rel=1e-6)

    def test_r_min_vs_dense_boundary_sampling(self):
        ts = np.linspace(0.0, 1.0, 3334)
        for _ in range(25):
            verts = RNG.uniform(-1.5, 1.5, size=(3, 2))
            if abs(shoelace_area(verts)) < 0.05:
                continue
            ext = radial_extents(verts)
            pts = np.vstack(
                [
                    verts[i] + ts[:, None] * (verts[(i + 1) % 3] - verts[i])
                    for i in range(3)
                ]
            )
            sampled = np.min(np.hypot(pts[:, 0], pts[:, 1]))
            if ext.r_min == 0.0:
                # inside: boundary distance is still >= 0, nothing to compare
                continue
            assert ext.r_min == pytest.approx(sampled, abs=1e-6)


class TestRefParams:
    def test_isoceles_symmetry(self):
        from helmpanel.geometry import SignedSubTriangle

        for theta in (0.4, 1.0, 2.4):
            sub = SignedSubTriangle(r1=0.8, r2=0.8, theta=theta, sign=1, psi1=0.0)
            geom = ref_params(sub, 0.3)
            assert geom.phi == pytest.approx(theta / 2, abs=1e-14)
            assert geom.s == pytest.approx(0.8 * math.cos(theta / 2), abs=1e-14)

    def test_right_angle(self):
        from helmpanel.geometry import SignedSubTriangle

        sub = SignedSubTriangle(r1=0.9, r2=0.4, theta=math.pi / 2, sign=1, psi1=0.0)
        geom = ref_params(sub, 0.1)
        assert geom.phi == pytest.approx(math.atan(0.9 / 0.4), abs=1e-14)

    def test_in_plane(self):
        from helmpanel.geometry import SignedSubTriangle

        sub = SignedSubTriangle(r1=0.9, r2=0.4, theta=1.2, sign=1, psi1=0.0)
        geom = ref_params(sub, 0.0)
        assert geom.alpha == 0.0
        assert geom.alpha_p == 1.0
        assert geom.S == geom.s

    def test_invariants_random(self):
        from helmpanel.geometry import SignedSubTriangle

        for _ in range(200):
            sub = SignedSubTriangle(
                r1=RNG.uniform(0.1, 2.0),
                r2=RNG.uniform(0.1, 2.0),
                theta=RNG.uniform(0.05, math.pi - 0.05),
                sign=1,
                psi1=0.0,
            )
            z = RNG.uniform(-1.0, 1.0)
            geom = ref_params(sub, z)
            assert geom.s > 0
            assert geom.S == pytest.approx(math.hypot(geom.s, z), rel=1e-15)
            assert 0.0 <= geom.alpha < 1.0
            assert geom.alpha**2 + geom.alpha_p**2 == pytest.approx(1.0, abs=1e-14)
            # shifted polar angle stays strictly inside (-pi/2, pi/2)
            assert -math.pi / 2 < geom.theta_lo <= geom.theta_hi < math.pi / 2
            # far side parameterization hits r1 and r2 at the ends
            assert geom.s / math.cos(geom.theta_lo) == pytest.approx(sub.r1, rel=1e-12)
            assert geom.s / math.cos(geom.theta_hi) == pytest.approx(sub.r2, rel=1e-12)
