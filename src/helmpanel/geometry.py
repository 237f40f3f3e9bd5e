"""Element-plane geometry for triangular panels.

A world-space triangle (``Triangle3``) is validated and given its element
frame once, when it is built; each field point is then moved into that
frame, in which the element lies in the plane z = 0 and the field point
sits at (0, 0, z).  The planar triangle is then decomposed into up to
three signed subtriangles, each with one vertex at the origin (the
projection of the field point).  Each subtriangle is described in a canonical form by the two
radii meeting at the origin, r1 and r2, and the angle Theta between them;
all potential integrals are evaluated on that canonical triangle.

Conventions fixed here (the analysis leaves them open):
  * element normal = normalize((v2 - v1) x (v3 - v1)),
  * z is the signed component of (field point - v1) along that normal,
  * the local x-axis is aligned with (v2 - v1), the local y-axis is
    normal x (local x-axis),
so the planar triangle always has positive (counter-clockwise) orientation
in local coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Subtriangles thinner than these thresholds contribute below double
# precision noise and would poison the sin(Theta)-derived recursions.
DROP_ANGLE = 1e-10
DROP_RADIUS_REL = 1e-12

# Tolerance (relative to triangle diameter) for the origin-on-boundary test.
BOUNDARY_TOL_REL = 1e-12


@dataclass(frozen=True, slots=True, eq=False)
class Triangle3:
    """A validated plane triangle in world coordinates, with its element frame.

    The vertices are kept as read-only float64 copies and no attribute can
    be reassigned.  The frame is computed once, here: the unit normal
    ``normal`` = normalize((v2 - v1) x (v3 - v1)), ``e1`` along v2 - v1 and
    ``e2`` = normal x e1, held as floats and returned as 3-vectors.
    Raises ValueError for non-finite vertices and for a degenerate
    (collinear) triangle.
    """

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    diameter: float = field(init=False)
    area: float = field(init=False)
    # (nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z)
    _frame: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        p1, p2, p3 = self.v1.tolist(), self.v2.tolist(), self.v3.tolist()
        if not all(map(math.isfinite, p1 + p2 + p3)):
            raise ValueError("triangle vertices must be finite")
        ax, ay, az = p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]
        bx, by, bz = p3[0] - p1[0], p3[1] - p1[1], p3[2] - p1[2]
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        nn = math.hypot(nx, ny, nz)
        l12 = math.dist(p1, p2)
        d = max(l12, math.dist(p2, p3), math.dist(p3, p1))
        if not (d > 0.0 and nn > 1e-12 * d * d and math.isfinite(nn)):
            msg = f"|area| = {0.5 * nn:.3e} below threshold for diameter {d:.3e}"
            raise ValueError(f"degenerate or non-finite triangle: {msg}")
        nx, ny, nz = nx / nn, ny / nn, nz / nn
        e1x, e1y, e1z = ax / l12, ay / l12, az / l12
        e2x, e2y, e2z = ny * e1z - nz * e1y, nz * e1x - nx * e1z, nx * e1y - ny * e1x
        object.__setattr__(self, "diameter", d)
        object.__setattr__(self, "area", 0.5 * nn)
        object.__setattr__(self, "_frame", (nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z))

    @classmethod
    def from_flat(cls, coords) -> "Triangle3":
        """Build from a flat sequence of 9 coordinates."""
        c = np.asarray(coords, dtype=float).reshape(3, 3)
        return cls(c[0], c[1], c[2])

    @property
    def vertices(self) -> np.ndarray:
        return np.vstack([self.v1, self.v2, self.v3])

    @property
    def normal(self) -> np.ndarray:
        """Unit normal, (v2 - v1) x (v3 - v1) normalized."""
        return np.array(self._frame[:3])

    @property
    def e1(self) -> np.ndarray:
        """Unit in-plane axis along v2 - v1 (the local x-axis)."""
        return np.array(self._frame[3:6])

    @property
    def e2(self) -> np.ndarray:
        """Unit in-plane axis normal x e1 (the local y-axis)."""
        return np.array(self._frame[6:])

    @property
    def centroid(self) -> np.ndarray:
        return (self.v1 + self.v2 + self.v3) / 3.0


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


@dataclass
class RadialExtents:
    """Nearest/farthest distance from the origin to the closed triangle."""

    r_min: float
    r_max: float


def to_local_frame(tri: Triangle3, x) -> tuple[np.ndarray, float]:
    """Transform a field point into the triangle's element frame.

    Returns ``(verts2d, z)`` where ``verts2d`` is the (3, 2) array
    of planar vertex coordinates with the field-point projection at the
    origin, and z is the signed height of the field point above the plane.
    Any |z| <= BOUNDARY_TOL_REL * diameter is returned as +0.0, a genuine
    height below the plane as well as roundoff, so the one-sided limits at
    such a point are the ones from z > 0.
    The axes come from the triangle, which computed them when it was
    built; only the per-point work is done here, in float arithmetic.
    """
    p1, p2, p3 = tri.v1.tolist(), tri.v2.tolist(), tri.v3.tolist()
    nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z = tri._frame
    px, py, pz = np.asarray(x, dtype=float).tolist()
    z = (px - p1[0]) * nx + (py - p1[1]) * ny + (pz - p1[2]) * nz
    if not math.isfinite(z):
        raise ValueError(f"field point {x} is not finite")
    if abs(z) <= BOUNDARY_TOL_REL * tri.diameter:
        # an in-plane point lands at a roundoff-level z of either sign; the
        # one-sided limits are taken from z > 0
        z = 0.0
    ox, oy, oz = px - z * nx, py - z * ny, pz - z * nz
    verts2d = []
    for vx, vy, vz in (p1, p2, p3):
        dx, dy, dz = vx - ox, vy - oy, vz - oz
        verts2d.append((dx * e1x + dy * e1y + dz * e1z, dx * e2x + dy * e2y + dz * e2z))
    return np.array(verts2d), z


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
