"""Geometry: frames, subdivision, radial extents, reference parameters."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp

from helmpanel.elemints import THETA_MAX
from helmpanel.engine import EvalRequest
from helmpanel.geometry import (
    BOUNDARY_TOL_REL,
    RadialExtents,
    SignedSubTriangle,
    Triangle3,
    edge_frame,
    edge_walk,
    radial_extents,
    ref_params,
    subdivide,
    to_local_frame,
    walk,
)

from helpers import canonical_sub, radii, random_planar_triangle, rigid_motion, shoelace_area, sub_area

RNG = np.random.default_rng(20240817)


def tri3(*rows):
    return Triangle3(*[np.array(r, dtype=float) for r in rows])


class TestTriangle3:
    def test_construction(self):
        # validated when built, immutable, and its frame matches the
        # NumPy formulas for the documented conventions
        with pytest.raises(ValueError, match="triangle vertex v2 must be finite and real"):
            tri3((0, 0, 0), (1, math.nan, 0), (0, 1, 0))
        with pytest.raises(ValueError, match="triangle vertex v3 must be finite and real"):
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

    def test_attributes_are_a_fresh_derivation(self):
        # every attribute read back from the one block is, bit for bit, what
        # the documented formulas give on plain floats from the vertices;
        # to_local_frame at v1 returns the stored plane vertices
        rng = np.random.default_rng(36)
        for _ in range(200):
            v = rng.uniform(-1.0, 1.0, size=(3, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
            tri = Triangle3(*v)
            (p1x, p1y, p1z), (p2x, p2y, p2z), (p3x, p3y, p3z) = v.tolist()
            ax, ay, az = p2x - p1x, p2y - p1y, p2z - p1z
            bx, by, bz = p3x - p1x, p3y - p1y, p3z - p1z
            nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            nn = math.hypot(nx, ny, nz)
            nx, ny, nz = nx / nn, ny / nn, nz / nn
            l12 = math.dist(v[0], v[1])
            e1x, e1y, e1z = ax / l12, ay / l12, az / l12
            e2x, e2y, e2z = ny * e1z - nz * e1y, nz * e1x - nx * e1z, nx * e1y - ny * e1x
            x3, y3 = bx * e1x + by * e1y + bz * e1z, bx * e2x + by * e2y + bz * e2z
            want = {
                "v1": v[0], "v2": v[1], "v3": v[2], "vertices": v, "centroid": (v[0] + v[1] + v[2]) / 3.0,
                "normal": np.array([nx, ny, nz]), "e1": np.array([e1x, e1y, e1z]),
                "e2": np.array([e2x, e2y, e2z]),
            }
            for name, value in want.items():
                got = getattr(tri, name)
                assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
            diameter = max(l12, math.dist(v[1], v[2]), math.dist(v[2], v[0]))
            assert type(tri.diameter) is float and tri.diameter == diameter
            assert type(tri.area) is float and tri.area == 0.5 * nn
            edges = edge_frame(((0.0, 0.0), (l12, 0.0), (x3, y3)))
            assert tri.edges == edges and list(map(type, tri.edges)) == list(map(type, edges))
            assert to_local_frame(tri, v[0]) == (((0.0, 0.0), (l12, 0.0), (x3, y3)), 0.0)

    def test_nothing_can_be_changed(self):
        # the vertices and the frame are read-only views of the block, which
        # no assignment or deletion reaches; vertices and centroid are copies
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        for name in ("v1", "v2", "v3", "normal", "e1", "e2"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tri, name)[0] = 0.5
        tri.vertices[0, 0] = 0.5
        tri.centroid[0] = 0.5
        assert tri.vertices[0, 0] == 0.0 and tri.centroid[0] == pytest.approx(1.3 / 3.0)
        for name in ("v1", "v2", "v3", "vertices", "normal", "e1", "e2", "centroid", "diameter", "area",
                     "edges", "_block", "other"):
            with pytest.raises(AttributeError):
                setattr(tri, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(tri, name)
        assert tri.v1.tolist() == [0.0, 0.0, 0.0] and tri.area == pytest.approx(0.4)

    def test_repr_names_the_vertices(self):
        tri = tri3((0.1, 0, 0), (1, 0, 0), (0.3, 0.8, 1 / 3))
        assert repr(tri) == f"Triangle3(v1=[0.1, 0.0, 0.0], v2=[1.0, 0.0, 0.0], v3=[0.3, 0.8, {1 / 3!r}])"
        again = eval(repr(tri), {"Triangle3": Triangle3})
        assert again.vertices.tobytes() == tri.vertices.tobytes()

    def test_footprint(self):
        # one block of 34 values per triangle: under 600 bytes, where three
        # vertex arrays and four tuples of floats took over 1 000
        verts = np.random.default_rng(37).uniform(-1.0, 1.0, size=(1000, 3, 3))
        tris = [None] * len(verts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, v in enumerate(verts):
                tris[i] = Triangle3(v[0], v[1], v[2])
            per_triangle = (tracemalloc.get_traced_memory()[0] - before) / len(tris)
        finally:
            tracemalloc.stop()
        assert per_triangle < 600


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

    @pytest.mark.parametrize("x", [5.0, [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]], ids=["scalar", "two", "four"])
    def test_point_of_wrong_shape_rejected(self, x):
        # the message EvalRequest gives, not a tuple-unpacking error
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        with pytest.raises(ValueError, match="^field point must have shape \\(3,\\), got ") as here:
            to_local_frame(tri, x)
        with pytest.raises(ValueError) as request:
            EvalRequest(tri, x, 1.0)
        assert str(here.value) == str(request.value)

    @pytest.mark.parametrize(
        "x", [(1j, 0.0, 0.0), [0.1, 1 + 0j, 0.2], np.array([0.1, 0.2, 0.3 + 1j]), ("a", 0.0, 0.0), [None, 0.0, 0.0]],
        ids=["complex-tuple", "complex-list", "complex-array", "string", "None"],
    )
    def test_point_of_other_entries_rejected(self, x):
        # not "must have shape (3,), got (3,)", nor a TypeError from EvalRequest
        # or, for a complex array, its imaginary part dropped with a ComplexWarning
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        with pytest.raises(ValueError, match="^field point must be finite and real \\(an integer or floating dtype\\), got ") as here:
            to_local_frame(tri, x)
        with pytest.raises(ValueError) as request:
            EvalRequest(tri, x, 1.0)
        assert str(here.value) == str(request.value)

    def test_rigid_motion_invariance_of_parameters(self):
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        x = np.array([0.4, 0.1, 0.25])
        verts0, z0 = to_local_frame(tri, x)
        subs0 = sorted(subdivide(verts0), key=lambda s: s.theta_hi - s.theta_lo)
        for _ in range(25):
            q, t = rigid_motion(RNG)
            tri_m = Triangle3(q @ tri.v1 + t, q @ tri.v2 + t, q @ tri.v3 + t)
            verts, z = to_local_frame(tri_m, q @ x + t)
            assert z == pytest.approx(z0, abs=1e-12)
            subs = sorted(subdivide(verts), key=lambda s: s.theta_hi - s.theta_lo)
            for a, b in zip(subs0, subs):
                assert a.sign == b.sign
                assert radii(a) == pytest.approx(radii(b), abs=1e-12)
                assert a.theta_hi - a.theta_lo == pytest.approx(b.theta_hi - b.theta_lo, abs=1e-12)

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

    def test_from_plane_vertices(self):
        # z is the height formula n.(x - v1) on floats, bit for bit; the
        # plane coordinates, a shift of the stored plane vertices, agree with
        # the projected-point construction (v - (x - z n)).e1, .e2 within 8
        # ulp of the diameter
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(300):
            q, t = rigid_motion(rng)
            planar = random_planar_triangle(rng, scale=float(10.0 ** rng.uniform(-2.0, 2.0)))
            diam = max(np.linalg.norm(planar[i] - planar[i - 1]) for i in range(3))
            tri = Triangle3(*(np.column_stack([planar, np.zeros(3)]) @ q.T + t * diam))
            x = q @ (np.array([*rng.uniform(-1.5, 1.5, 2), rng.uniform(-2.0, 2.0)]) * diam) + t * diam
            verts2d, z = to_local_frame(tri, x)
            (p1x, p1y, p1z), (px, py, pz) = tri.v1.tolist(), x.tolist()
            nx, ny, nz = tri.normal.tolist()
            assert z == (px - p1x) * nx + (py - p1y) * ny + (pz - p1z) * nz
            ox, oy, oz = px - z * nx, py - z * ny, pz - z * nz
            ref = [
                [(vx - ox) * ex + (vy - oy) * ey + (vz - oz) * ez for ex, ey, ez in (tri.e1.tolist(), tri.e2.tolist())]
                for vx, vy, vz in tri.vertices.tolist()
            ]
            worst = max(worst, float(np.max(np.abs(np.subtract(verts2d, ref)))) / math.ulp(tri.diameter))
        assert worst <= 8.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            tri3((0, 0, 0), (1, 0, 0), (2, 0, 0))

    def test_normal_maps_to_plus_z(self):
        tri = tri3((0, 0, 0), (1, 0, 0), (0.3, 0.8, 0))
        verts2d, z = to_local_frame(tri, (0.2, 0.2, -0.4))
        # orientation preserved: planar triangle counter-clockwise, z signed
        assert shoelace_area(verts2d) > 0
        assert z == pytest.approx(-0.4, abs=1e-14)


def separate_extents(verts2d) -> RadialExtents:
    """The extents in a walk of their own, by the clamped foot point and its hypot."""
    verts = np.asarray(verts2d, dtype=float).tolist()
    edges = [(a[0], a[1], b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:] + verts[:1])]
    lengths = [math.hypot(ex, ey) for _, _, ex, ey in edges]
    r_max = max(math.hypot(vx, vy) for vx, vy in verts)
    tol = BOUNDARY_TOL_REL * max(lengths)
    (_, _, e0x, e0y), _, (_, _, e2x, e2y) = edges
    orient = 1.0 if e0x * -e2y - e0y * -e2x >= 0.0 else -1.0
    if not any(
        orient * (ex * -ay - ey * -ax) < -tol * length
        for (ax, ay, ex, ey), length in zip(edges, lengths)
    ):
        return RadialExtents(r_min=0.0, r_max=r_max)
    r_min = math.inf
    for ax, ay, ex, ey in edges:
        denom = ex * ex + ey * ey
        t = min(1.0, max(0.0, -(ax * ex + ay * ey) / denom)) if denom > 0.0 else 0.0
        r_min = min(r_min, math.hypot(ax + t * ex, ay + t * ey))
    return RadialExtents(r_min=r_min, r_max=r_max)


def drop_threshold(verts2d) -> float:
    """The walk's one drop rule: BOUNDARY_TOL_REL * max(longest edge, r_max)."""
    verts = np.asarray(verts2d, dtype=float).tolist()
    longest = max(math.dist(a, b) for a, b in zip(verts, verts[1:] + verts[:1]))
    return BOUNDARY_TOL_REL * max(longest, *(math.hypot(vx, vy) for vx, vy in verts))


def separate_fan(verts2d) -> list[SignedSubTriangle]:
    """The signed subtriangles in canonical form, by the atan route (``canonical_sub``).

    Each edge a -> b whose line lies farther from the origin than
    ``drop_threshold``, at s = |a x b| / |b - a|, gives Theta =
    atan2(|a x b|, a.b) and the polar angle psi1 of the side the
    subtriangle starts from.
    """
    verts = np.asarray(verts2d, dtype=float).tolist()
    drop = drop_threshold(verts)
    subs = []
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        cross = a[0] * b[1] - a[1] * b[0]
        if abs(cross) / math.dist(a, b) <= drop:
            continue
        ra, rb = math.hypot(a[0], a[1]), math.hypot(b[0], b[1])
        theta = math.atan2(abs(cross), a[0] * b[0] + a[1] * b[1])
        first, r1, r2, sign = (a, ra, rb, 1) if cross > 0.0 else (b, rb, ra, -1)
        subs.append(canonical_sub(r1, r2, theta, sign, math.atan2(first[1], first[0])))
    return subs


def off_line(rng, v, rel: float) -> np.ndarray:
    """A point ``rel`` diameters off the line of a random edge of ``v``, beside or past its ends."""
    i = int(rng.integers(3))
    a, b = v[i], v[(i + 1) % 3]
    e = b - a
    diam = max(np.linalg.norm(v[j] - v[j - 1]) for j in range(3))
    normal = np.array([-e[1], e[0]]) / np.linalg.norm(e)
    return a + rng.uniform(-1.0, 2.0) * e + rng.choice([-1.0, 1.0]) * rel * diam * normal


def walk_cases(rng, n: int) -> list[np.ndarray]:
    """Plane triangles about the origin: random triangles (either orientation)
    about random points, their vertices, points on and inside them, and
    points 1e-10 and 1e-14 diameters off an edge's line."""
    cases = []
    for _ in range(n):
        v = rng.uniform(-1.0, 1.0, size=(3, 2))
        i, t = int(rng.integers(3)), float(rng.uniform(0.0, 1.0))
        bary = rng.dirichlet(np.ones(3))
        origins = (rng.uniform(-2.0, 2.0, 2), v[i], v[i] + t * (v[i - 2] - v[i]), bary @ v)
        for origin in (*origins, off_line(rng, v, 1e-10), off_line(rng, v, 1e-14)):
            cases.append(v - origin)
    return cases


def param_distance(a, b, r_max: float) -> float:
    """Largest difference of two subtriangles' reference parameters (s relative to r_max)."""
    return max(
        abs(a.s - b.s) / r_max,
        abs(a.theta_lo - b.theta_lo),
        abs(a.theta_hi - b.theta_hi),
        abs(a.cos_psi - b.cos_psi),
        abs(a.sin_psi - b.sin_psi),
    )


def canonical_at_50_digits(verts2d, sub) -> SimpleNamespace:
    """The canonical formulas of ``canonical_sub`` at 50 digits, for the edge that gave ``sub``."""
    with mp.workdps(50):
        verts = [(mp.mpf(x), mp.mpf(y)) for x, y in np.asarray(verts2d, dtype=float).tolist()]
        ends = [(a, b) if sub.sign > 0 else (b, a) for a, b in zip(verts, verts[1:] + verts[:1])]
        r1, r2 = radii(sub)
        first, second = min(ends, key=lambda e: abs(mp.hypot(*e[0]) - r1) + abs(mp.hypot(*e[1]) - r2))
        r1, r2 = mp.hypot(*first), mp.hypot(*second)
        cross = first[0] * second[1] - first[1] * second[0]
        theta = mp.atan2(abs(cross), first[0] * second[0] + first[1] * second[1])
        phi = mp.atan((r1 - r2 * mp.cos(theta)) / (r2 * mp.sin(theta)))
        psi = mp.atan2(first[1], first[0]) + phi
        return SimpleNamespace(
            s=float(r1 * mp.cos(phi)), cos_psi=float(mp.cos(psi)), sin_psi=float(mp.sin(psi)),
            theta_lo=float(-phi), theta_hi=float(theta - phi),
        )


class TestEdgeWalk:
    def test_matches_separate_walks(self):
        # the same extents (r_min from |d_e| within a few ulp of the
        # hypot of the clamped foot) and the same subtriangles as a walk
        # for each, on random triangles about random origins, their
        # vertices, points on their edges and inside, points just off an
        # edge's line, and in-plane points of posed triangles
        rng = np.random.default_rng(41)
        cases = walk_cases(rng, 400)
        for _ in range(100):
            q, t = rigid_motion(rng)
            planar = random_planar_triangle(rng)
            tri = Triangle3(*(np.column_stack([planar, np.zeros(3)]) @ q.T + t))
            for origin in (planar[0], 0.5 * (planar[0] + planar[1]), planar.mean(axis=0), rng.uniform(-2.0, 2.0, 2)):
                verts2d, z = to_local_frame(tri, q @ [*origin, 0.0] + t)
                assert z == 0.0
                cases.append(verts2d)
        for verts2d in cases:
            ext, fan = edge_walk(verts2d)
            ref = separate_extents(verts2d)
            assert ext.r_max == ref.r_max and (ext.r_min == 0.0) == (ref.r_min == 0.0)
            assert abs(ext.r_min - ref.r_min) <= 4e-16 * ref.r_max
            want = separate_fan(verts2d)
            assert [s.sign for s in fan] == [s.sign for s in want]
            for got, ref in zip(fan, want):
                # the same two sides; s / cos(theta) loses digits as theta -> +-pi/2
                for r, r_ref, th in zip(radii(got), radii(ref), (got.theta_lo, got.theta_hi)):
                    assert abs(r - r_ref) <= 1e-12 * (1.0 + math.tan(th) ** 2) * r_ref
            assert radial_extents(verts2d) == ext and subdivide(verts2d) == fan

    def test_reference_parameters_match_canonical_formulas(self):
        # s, the foot direction and the angle range from each edge's d_e and
        # along-edge coordinates, against the atan route from (r1, r2,
        # Theta, psi1) (``canonical_sub``): lengths relative to r_max,
        # angles and direction cosines absolute, in both orientations and
        # all projection classes, including projections 1e-10 and 1e-14 off
        # an edge's line.  Where the two differ by more than 1e-14, the same
        # canonical formulas at 50 digits show the float atan route off
        # (it loses digits on thin subtriangles) and the walk within 1e-15
        rng = np.random.default_rng(43)
        worst, kept_near_line, ill = 0.0, 0, 0
        for verts2d in walk_cases(rng, 500):
            ext, fan = edge_walk(verts2d)
            for got, want in zip(fan, separate_fan(verts2d), strict=True):
                assert -math.pi / 2 < got.theta_lo < got.theta_hi < math.pi / 2
                dev = param_distance(got, want, ext.r_max)
                if dev > 1e-14:
                    exact = canonical_at_50_digits(verts2d, got)
                    assert param_distance(got, exact, ext.r_max) <= 1e-15
                    assert dev <= param_distance(want, exact, ext.r_max) + 1e-15
                    ill += 1
                worst = max(worst, dev)
                kept_near_line += got.s < 1e-8 * ext.r_max
        assert kept_near_line > 100  # the 1e-10 cases keep their thin subtriangles
        assert ill <= 5 and worst <= 1e-13

    def test_triangle_path_is_the_raw_path(self):
        # evaluate walks with the edge frame the Triangle3 stored; edge_walk
        # derives it from its input.  With the triangle in the world's z = 0
        # plane, v1 at the origin, v2 on the x-axis and every coordinate a
        # multiple of 2^-10, the shift of the plane vertices is exact, so
        # both paths see the same edges and must agree bit for bit
        rng = np.random.default_rng(47)
        grid = lambda *shape: rng.integers(-1024, 1025, size=shape) / 1024.0  # noqa: E731
        checked = 0
        for _ in range(200):
            x2, (x3, y3) = abs(grid()) + 0.25, grid(2)
            if abs(y3) < 0.25:
                continue
            plane = np.array([[0.0, 0.0], [x2, 0.0], [x3, abs(y3)]])
            tri = Triangle3(*np.column_stack([plane, np.zeros(3)]))
            assert tri.edges == edge_frame(plane.tolist())
            i = int(rng.integers(3))
            for origin in (plane[i], 0.5 * (plane[i] + plane[i - 2]), (plane[0] + plane[1] + 2.0 * plane[2]) / 4.0, grid(2) * 2.0):
                verts2d, _ = to_local_frame(tri, [*origin, float(grid())])
                ext, fan = walk(verts2d, tri.edges)
                raw_ext, raw_fan = edge_walk(np.array(verts2d))
                assert ext == raw_ext and fan == raw_fan
                checked += 1
        assert checked > 500


    @pytest.mark.parametrize(
        "verts",
        [
            [[math.inf, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, math.nan]],
            [[math.nan, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        ],
    )
    def test_rejects_all_but_three_finite_pairs(self, verts):
        for fn in (edge_walk, subdivide, radial_extents):
            with pytest.raises(ValueError, match="^plane vertices must (have shape|be finite and real)"):
                fn(verts)


def contract_cases(rng, n: int) -> list[np.ndarray]:
    """Random triangles in both orientations about a vertex, a point 1e-18 to
    1e-8 from it, a point on an edge, one inside and one outside (out to
    1e8)."""
    cases = []
    for _ in range(n):
        v = rng.uniform(-1.0, 1.0, size=(3, 2))
        i = int(rng.integers(3))
        t = rng.uniform(0.0, 2.0 * math.pi)
        near = v[i] + 10.0 ** rng.uniform(-18.0, -8.0) * np.array([math.cos(t), math.sin(t)])
        on_edge = v[i] + rng.uniform(0.0, 1.0) * (v[i - 2] - v[i])
        far = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(0.0, 8.0)
        for origin in (v[i], near, on_edge, rng.dirichlet(np.ones(3)) @ v, far):
            cases += [v - origin, v[::-1] - origin]
    return cases


class TestWalkContract:
    def check_contract(self, verts2d) -> tuple[bool, int, int]:
        # the walk's documented contract: every survivor's s above the
        # threshold (``drop_threshold``), its angles within +-THETA_MAX, and
        # the signed areas summing to the shoelace area (negative when
        # clockwise) less the dropped subtriangles', each at most the
        # threshold times half its edge (the perimeter less the survivors'
        # far sides), plus sixteen roundings of r_max^2.  Returns whether a
        # vertex lies within the threshold, and the counts of survivors
        # beside an edge's line and with an angle near THETA_MAX
        ext, fan = edge_walk(verts2d)
        verts = np.asarray(verts2d, dtype=float).tolist()
        dropped = sum(math.dist(a, b) for a, b in zip(verts, verts[1:] + verts[:1]))
        drop = drop_threshold(verts2d)
        total = 0.0
        thin = steep = 0
        for sub in fan:
            assert sub.s > drop
            assert -THETA_MAX <= sub.theta_lo <= sub.theta_hi <= THETA_MAX
            far_side = sub.s * (math.tan(sub.theta_hi) - math.tan(sub.theta_lo))
            total += sub.sign * 0.5 * sub.s * far_side
            dropped -= far_side
            thin += sub.s < 1e-8 * ext.r_max
            steep += max(-sub.theta_lo, sub.theta_hi) > math.pi / 2 - 1e-8
        bound = drop * max(dropped, 0.0) / 2 + 16.0 * np.finfo(float).eps * ext.r_max**2
        assert abs(total - shoelace_area(verts2d)) <= bound
        near_vertex = min(math.hypot(*p) for p in verts) < BOUNDARY_TOL_REL * ext.r_max
        return near_vertex, thin, steep

    def test_random_triangles_both_orientations(self):
        rng = np.random.default_rng(53)
        cases = contract_cases(rng, 300)
        near_vertex, thin, steep = np.sum([self.check_contract(c) for c in cases], axis=0)
        # the cases reach what the contract is about: a vertex within the
        # threshold, kept subtriangles beside an edge's line and angles near
        # THETA_MAX, and clockwise triangles whose fans sum to a negative area
        assert near_vertex > 500 and thin > 100 and steep > 100
        assert sum(shoelace_area(c) < 0.0 for c in cases) == len(cases) // 2
        # the extents, unlike the fan, do not depend on the order
        for verts2d, reversed_order in zip(cases[::2], cases[1::2]):
            assert radial_extents(reversed_order) == radial_extents(verts2d)

    def test_angle_test_slivers(self):
        # points 1e-10 and 1e-14 diameters off an edge's line, where a test
        # on the subtriangle's angle would drop slivers of up to r_max^2 / 2:
        # the one drop rule keeps them, thin and with angles near THETA_MAX,
        # and the contract holds without a sliver allowance
        rng = np.random.default_rng(59)
        cases = walk_cases(rng, 300)
        _, thin, steep = np.sum([self.check_contract(c) for c in cases], axis=0)
        assert thin > 100 and steep > 100


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
        # apex at the origin: the foot on the far side bisects the apex angle
        for theta in (0.4, 1.0, 2.4):
            (sub,) = subdivide([[0.0, 0.0], [0.8, 0.0], [0.8 * math.cos(theta), 0.8 * math.sin(theta)]])
            assert math.atan2(sub.sin_psi, sub.cos_psi) == pytest.approx(theta / 2, abs=1e-14)
            assert sub.theta_lo == pytest.approx(-theta / 2, abs=1e-14)
            assert ref_params(sub, 0.3).s == pytest.approx(0.8 * math.cos(theta / 2), abs=1e-14)

    def test_right_angle(self):
        # right angle at the origin, side r1 = 0.9 at polar angle 0.5
        c, s = math.cos(0.5), math.sin(0.5)
        (sub,) = subdivide([[0.0, 0.0], [0.9 * c, 0.9 * s], [-0.4 * s, 0.4 * c]])
        assert (radii(sub)[0], sub.sign) == (pytest.approx(0.9), 1)
        assert math.atan2(sub.sin_psi, sub.cos_psi) == pytest.approx(0.5 + math.atan(0.9 / 0.4), abs=1e-14)
        assert sub.theta_hi - sub.theta_lo == pytest.approx(math.pi / 2, abs=1e-14)

    def test_in_plane(self):
        sub = canonical_sub(0.9, 0.4, 1.2)
        geom = ref_params(sub, 0.0)
        assert geom.alpha == 0.0
        assert geom.alpha_p == 1.0
        assert geom.S == geom.s == sub.s

    def test_invariants_random(self):
        for _ in range(200):
            verts = RNG.uniform(-1.0, 1.0, size=(3, 2))
            z = RNG.uniform(-1.0, 1.0)
            for sub in subdivide(verts):
                geom = ref_params(sub, z)
                assert geom.s > 0
                assert (geom.theta_lo, geom.theta_hi) == (sub.theta_lo, sub.theta_hi)
                assert geom.S == pytest.approx(math.hypot(geom.s, z), rel=1e-15)
                assert 0.0 <= geom.alpha < 1.0
                assert geom.alpha**2 + geom.alpha_p**2 == pytest.approx(1.0, abs=1e-14)
                assert sub.cos_psi**2 + sub.sin_psi**2 == pytest.approx(1.0, abs=1e-15)
                # shifted polar angle stays strictly inside (-pi/2, pi/2)
                assert -math.pi / 2 < geom.theta_lo <= geom.theta_hi < math.pi / 2
                # far side parameterization hits a vertex at either end
                for th in (geom.theta_lo, geom.theta_hi):
                    r = geom.s / math.cos(th)
                    assert min(abs(math.hypot(*v) - r) for v in verts) <= 1e-12 * r
