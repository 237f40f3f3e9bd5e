"""Element-plane geometry for triangular panels.

A world-space triangle and a field point are moved into a local frame in
which the element lies in the plane z = 0 and the field point sits at
(0, 0, z).  The planar triangle is then decomposed into up to three signed
subtriangles, each with one vertex at the origin (the projection of the
field point).  Each subtriangle is described in a canonical form by the two
radii meeting at the origin, r1 and r2, and the angle Theta between them;
all potential integrals are evaluated on that canonical triangle.

Conventions fixed here (the analysis leaves them open):
  * element normal = normalize((v2 - v1) x (v3 - v1)),
  * z is the signed component of (field point - v1) along that normal,
  * the local x-axis is aligned with (v2 - v1),
so the planar triangle always has positive (counter-clockwise) orientation
in local coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Subtriangles thinner than these thresholds contribute below double
# precision noise and would poison the sin(Theta)-derived recursions.
DROP_ANGLE = 1e-10
DROP_RADIUS_REL = 1e-12

# Tolerance (relative to triangle diameter) for the origin-on-boundary test.
BOUNDARY_TOL_REL = 1e-12


@dataclass
class Triangle3:
    """A plane triangle in world coordinates (vertices as 3-vectors)."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def __post_init__(self):
        self.v1 = np.asarray(self.v1, dtype=float)
        self.v2 = np.asarray(self.v2, dtype=float)
        self.v3 = np.asarray(self.v3, dtype=float)

    @classmethod
    def from_flat(cls, coords) -> "Triangle3":
        """Build from a flat sequence of 9 coordinates."""
        c = np.asarray(coords, dtype=float).reshape(3, 3)
        return cls(c[0], c[1], c[2])

    @property
    def vertices(self) -> np.ndarray:
        return np.vstack([self.v1, self.v2, self.v3])

    @property
    def diameter(self) -> float:
        e = (self.v2 - self.v1, self.v3 - self.v2, self.v1 - self.v3)
        return max(float(np.linalg.norm(v)) for v in e)

    @property
    def area(self) -> float:
        n = np.cross(self.v2 - self.v1, self.v3 - self.v1)
        return 0.5 * float(np.linalg.norm(n))

    @property
    def normal(self) -> np.ndarray:
        """Unit normal, (v2-v1) x (v3-v1) normalized; see ``validate``."""
        n = self.validate()
        return n / np.linalg.norm(n)

    @property
    def centroid(self) -> np.ndarray:
        return (self.v1 + self.v2 + self.v3) / 3.0

    def validate(self) -> np.ndarray:
        """Reject degenerate (collinear) triangles; return (v2-v1) x (v3-v1).

        Written so that non-finite vertices fail the check too.
        """
        return np.array(_plane(self.v1.tolist(), self.v2.tolist(), self.v3.tolist())[0])


def _plane(p1, p2, p3):
    """Raw normal (v2-v1) x (v3-v1), its norm, v2 - v1, its length and the diameter.

    Takes the vertices as coordinate lists.  Raises ValueError for a
    degenerate (collinear) or non-finite triangle.
    """
    ax, ay, az = p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]
    bx, by, bz = p3[0] - p1[0], p3[1] - p1[1], p3[2] - p1[2]
    n = (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    nn = math.hypot(*n)
    l12 = math.dist(p1, p2)
    d = max(l12, math.dist(p2, p3), math.dist(p3, p1))
    if not (d > 0.0 and nn > 1e-12 * d * d and math.isfinite(nn)):
        raise ValueError(
            "degenerate or non-finite triangle: "
            f"|area| = {0.5 * nn:.3e} "
            f"below threshold for diameter {d:.3e}"
        )
    return n, nn, (ax, ay, az), l12, d


@dataclass
class LocalFrame:
    """Rigid map between world coordinates and the element frame.

    ``rotation`` has rows (e1, e2, n); a world point p maps to
    ``rotation @ (p - origin)``.  The field point maps to (0, 0, z).
    """

    origin: np.ndarray
    rotation: np.ndarray
    z: float

    def to_local(self, p) -> np.ndarray:
        """Local coordinates of a point (3,) or of a stack of points (N, 3)."""
        return (np.asarray(p, dtype=float) - self.origin) @ self.rotation.T

    def to_world(self, q) -> np.ndarray:
        return self.origin + self.rotation.T @ np.asarray(q, dtype=float)


@dataclass
class SignedSubTriangle:
    """Origin-centred subtriangle in canonical (r1, r2, Theta) form.

    ``psi1`` is the polar angle, in element-plane coordinates, of the side
    of length r1; the subtriangle is swept counter-clockwise from psi1
    through Theta.  ``sign`` is +1 when the subtriangle adds to the parent
    triangle and -1 when its contribution must be subtracted.
    """

    r1: float
    r2: float
    theta: float
    sign: int
    psi1: float

    @property
    def area(self) -> float:
        return 0.5 * self.r1 * self.r2 * math.sin(self.theta)

    @property
    def r_max(self) -> float:
        return max(self.r1, self.r2)


@dataclass
class RefGeom:
    """Geometric parameters of the canonical subtriangle.

    phi locates the perpendicular foot from the origin to the far side;
    s is that perpendicular distance, S^2 = s^2 + z^2, alpha = |z|/S and
    alpha_p = s/S.  The polar angle measured from the foot direction runs
    over [theta_lo, theta_hi], strictly inside (-pi/2, pi/2), and the far
    side is r(theta) = s / cos(theta).
    """

    phi: float
    s: float
    S: float
    alpha: float
    alpha_p: float
    theta_lo: float
    theta_hi: float

    def rbar(self, theta) -> np.ndarray:
        return self.s / np.cos(theta)


@dataclass
class RadialExtents:
    """Nearest/farthest distance from the origin to the closed triangle."""

    r_min: float
    r_max: float


def to_local_frame(tri: Triangle3, x) -> tuple[LocalFrame, np.ndarray, float]:
    """Transform a triangle/field-point pair into the element frame.

    Returns ``(frame, verts2d, z)`` where ``verts2d`` is the (3, 2) array
    of planar vertex coordinates with the field-point projection at the
    origin, and z is the signed height of the field point above the plane.
    Any |z| <= BOUNDARY_TOL_REL * diameter is returned as +0.0, a genuine
    height below the plane as well as roundoff, so the one-sided limits at
    such a point are the ones from z > 0.
    One request's frame is a handful of 3-vectors, so it is computed in
    float arithmetic rather than with NumPy calls.
    """
    p1, p2, p3 = tri.v1.tolist(), tri.v2.tolist(), tri.v3.tolist()
    (nx, ny, nz), nn, (e1x, e1y, e1z), l12, diam = _plane(p1, p2, p3)
    nx, ny, nz = nx / nn, ny / nn, nz / nn
    e1x, e1y, e1z = e1x / l12, e1y / l12, e1z / l12  # along v2 - v1
    e2x, e2y, e2z = ny * e1z - nz * e1y, nz * e1x - nx * e1z, nx * e1y - ny * e1x  # n x e1
    px, py, pz = np.asarray(x, dtype=float).tolist()
    z = (px - p1[0]) * nx + (py - p1[1]) * ny + (pz - p1[2]) * nz
    if not math.isfinite(z):
        raise ValueError(f"field point {x} is not finite")
    if abs(z) <= BOUNDARY_TOL_REL * diam:
        # an in-plane point lands at a roundoff-level z of either sign; the
        # one-sided limits are taken from z > 0
        z = 0.0
    ox, oy, oz = px - z * nx, py - z * ny, pz - z * nz
    verts2d = []
    for vx, vy, vz in (p1, p2, p3):
        dx, dy, dz = vx - ox, vy - oy, vz - oz
        verts2d.append((dx * e1x + dy * e1y + dz * e1z, dx * e2x + dy * e2y + dz * e2z))
    frame = LocalFrame(
        origin=np.array([ox, oy, oz]),
        rotation=np.array([[e1x, e1y, e1z], [e2x, e2y, e2z], [nx, ny, nz]]),
        z=z,
    )
    return frame, np.array(verts2d), z


def subdivide(verts2d) -> list[SignedSubTriangle]:
    """Split a planar triangle into signed subtriangles about the origin.

    One subtriangle is formed per edge; slivers (angle below DROP_ANGLE,
    radius below DROP_RADIUS_REL * r_max, or angle within DROP_ANGLE of pi,
    which happens when the origin lies on an edge line) are dropped.  The
    signed areas of the survivors sum to the area of the input triangle.
    """
    verts = np.asarray(verts2d, dtype=float).tolist()
    r_max = max(math.hypot(vx, vy) for vx, vy in verts)
    subs: list[SignedSubTriangle] = []
    for i in range(3):
        a = verts[i]
        b = verts[(i + 1) % 3]
        ra = math.hypot(a[0], a[1])
        rb = math.hypot(b[0], b[1])
        if ra < DROP_RADIUS_REL * r_max or rb < DROP_RADIUS_REL * r_max:
            continue
        cross = a[0] * b[1] - a[1] * b[0]
        dot = a[0] * b[0] + a[1] * b[1]
        theta = math.atan2(abs(cross), dot)
        if theta < DROP_ANGLE or theta > math.pi - DROP_ANGLE:
            continue
        if abs(cross) * 0.5 <= DROP_RADIUS_REL * r_max * r_max:
            continue
        if cross > 0.0:
            first, r1, r2, sign = a, ra, rb, 1
        else:
            first, r1, r2, sign = b, rb, ra, -1
        subs.append(
            SignedSubTriangle(
                r1=r1,
                r2=r2,
                theta=theta,
                sign=sign,
                psi1=math.atan2(first[1], first[0]),
            )
        )
    return subs


def radial_extents(verts2d) -> RadialExtents:
    """Nearest and farthest radial distance from the origin to the triangle.

    r_min is zero when the origin lies inside the triangle or on its
    boundary (within BOUNDARY_TOL_REL of the diameter); r_max is the
    distance to the farthest vertex.
    """
    verts = np.asarray(verts2d, dtype=float).tolist()
    # (ax, ay, ex, ey): start and direction of each edge
    edges = [(a[0], a[1], b[0] - a[0], b[1] - a[1]) for a, b in zip(verts, verts[1:] + verts[:1])]
    lengths = [math.hypot(ex, ey) for _, _, ex, ey in edges]
    r_max = max(math.hypot(vx, vy) for vx, vy in verts)
    tol = BOUNDARY_TOL_REL * max(lengths)
    # orientation from the signed area; the origin is inside when its
    # signed distance from every edge line (positive inside) is >= -tol
    (_, _, e0x, e0y), _, (_, _, e2x, e2y) = edges
    orient = 1.0 if e0x * -e2y - e0y * -e2x >= 0.0 else -1.0
    if not any(
        orient * (ex * -ay - ey * -ax) < -tol * length
        for (ax, ay, ex, ey), length in zip(edges, lengths)
    ):
        return RadialExtents(r_min=0.0, r_max=r_max)
    r_min = math.inf
    for ax, ay, ex, ey in edges:
        # distance from the origin to the segment (ax, ay) + t (ex, ey), 0 <= t <= 1
        denom = ex * ex + ey * ey
        t = min(1.0, max(0.0, -(ax * ex + ay * ey) / denom)) if denom > 0.0 else 0.0
        r_min = min(r_min, math.hypot(ax + t * ex, ay + t * ey))
    return RadialExtents(r_min=r_min, r_max=r_max)


def ref_params(sub: SignedSubTriangle, z: float) -> RefGeom:
    """Reference-triangle parameters for one subtriangle at height z."""
    phi = math.atan((sub.r1 - sub.r2 * math.cos(sub.theta)) / (sub.r2 * math.sin(sub.theta)))
    s = sub.r1 * math.cos(phi)
    S = math.hypot(s, z)
    return RefGeom(
        phi=phi,
        s=s,
        S=S,
        alpha=abs(z) / S,
        alpha_p=s / S,
        theta_lo=-phi,
        theta_hi=sub.theta - phi,
    )
