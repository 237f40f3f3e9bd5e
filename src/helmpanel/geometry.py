"""Element-plane geometry for triangular panels.

A world-space triangle (``Triangle3``) is validated and given its element
frame and its vertices in its own plane once, when it is built; each
field point is then moved into that frame, in which the element lies in
the plane z = 0 and the field point sits at (0, 0, z): a height and two
dot products, then a shift of the three stored plane vertices.  One walk
over the three edges (``edge_walk``) then gives the nearest and farthest
distance from the projection (the origin) to the triangle and its
decomposition into up to three signed subtriangles, each with one vertex
at the origin.  Each subtriangle is described in a canonical form by the two
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
    ``e2`` = normal x e1, held as floats and returned as 3-vectors.  So are
    the vertices in that frame with v1 at the origin: (0, 0), (|v2 - v1|, 0)
    and ((v3 - v1).e1, (v3 - v1).e2).
    Raises ValueError for a vertex that is not of shape (3,), for
    non-finite vertices and for a degenerate (collinear) triangle.
    """

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    diameter: float = field(init=False)
    area: float = field(init=False)
    # (nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z)
    _frame: tuple = field(init=False, repr=False)
    # (x2, x3, y3): the plane vertices relative to v1 are (0, 0), (x2, 0), (x3, y3)
    _plane: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"triangle vertex {name} must have shape (3,), got {v.shape}")
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
        x3, y3 = bx * e1x + by * e1y + bz * e1z, bx * e2x + by * e2y + bz * e2z
        object.__setattr__(self, "_plane", (l12, x3, y3))

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


@dataclass(slots=True)
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


@dataclass(slots=True)
class RefGeom:
    """Geometric parameters of the canonical subtriangle.

    psi is the element-plane polar angle of the perpendicular foot from
    the origin to the far side (reference x/y rotate by it into the
    element frame); s is that perpendicular distance, S^2 = s^2 + z^2,
    alpha = |z|/S and alpha_p = s/S.  The polar angle measured from the
    foot direction runs over [theta_lo, theta_hi], strictly inside
    (-pi/2, pi/2), and the far side is r(theta) = s / cos(theta).
    """

    psi: float
    s: float
    S: float
    alpha: float
    alpha_p: float
    theta_lo: float
    theta_hi: float


@dataclass(slots=True)
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
    The axes and the plane vertices come from the triangle, which computed
    them when it was built; per point, z = n.(x - v1) and the projection's
    plane coordinates (e1.(x - v1), e2.(x - v1)) are float arithmetic, and
    the plane vertices are shifted by the latter.
    """
    p1 = tri.v1.tolist()
    nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z = tri._frame
    px, py, pz = np.asarray(x, dtype=float).tolist()
    dx, dy, dz = px - p1[0], py - p1[1], pz - p1[2]
    z = dx * nx + dy * ny + dz * nz
    if not math.isfinite(z):
        raise ValueError(f"field point {x} is not finite")
    if abs(z) <= BOUNDARY_TOL_REL * tri.diameter:
        # an in-plane point lands at a roundoff-level z of either sign; the
        # one-sided limits are taken from z > 0
        z = 0.0
    ox, oy = dx * e1x + dy * e1y + dz * e1z, dx * e2x + dy * e2y + dz * e2z
    x2, x3, y3 = tri._plane
    return np.array(((0.0 - ox, 0.0 - oy), (x2 - ox, 0.0 - oy), (x3 - ox, y3 - oy))), z


def edge_walk(verts2d) -> tuple[RadialExtents, list[SignedSubTriangle]]:
    """Radial extents and signed subtriangles about the origin, in one pass.

    Each edge, from vertex i to vertex i + 1, gives its distance from the
    origin, the side of its line the origin lies on, and one signed
    subtriangle, on plain floats.

    Extents: r_min is zero when the origin lies inside the triangle or on
    its boundary (its signed distance from every edge line, positive
    inside, is at least -BOUNDARY_TOL_REL times the longest edge), and
    otherwise the distance to the nearest edge; r_max is the distance to
    the farthest vertex.

    Fan: slivers (angle below DROP_ANGLE, radius below DROP_RADIUS_REL *
    r_max, or angle within DROP_ANGLE of pi, which happens when the origin
    lies on an edge line) are dropped.  The signed areas of the survivors
    sum to the area of the input triangle.
    """
    verts = np.asarray(verts2d, dtype=float).tolist()
    radii = [math.hypot(vx, vy) for vx, vy in verts]
    r_max = max(radii)
    r_drop = DROP_RADIUS_REL * r_max
    fan: list[SignedSubTriangle] = []
    # per edge: its length, the origin's distance from the edge line times
    # the length (positive to the left), and from the segment
    lengths, sides, dists = [], [], []
    for i in range(3):
        (ax, ay), (bx, by) = verts[i], verts[i - 2]
        ra, rb = radii[i], radii[i - 2]
        ex, ey = bx - ax, by - ay
        lengths.append(math.hypot(ex, ey))
        sides.append(ex * -ay - ey * -ax)
        # the segment (ax, ay) + t (ex, ey), 0 <= t <= 1
        denom = ex * ex + ey * ey
        t = min(1.0, max(0.0, -(ax * ex + ay * ey) / denom)) if denom > 0.0 else 0.0
        dists.append(math.hypot(ax + t * ex, ay + t * ey))
        if ra < r_drop or rb < r_drop:
            continue
        cross = ax * by - ay * bx
        theta = math.atan2(abs(cross), ax * bx + ay * by)
        if theta < DROP_ANGLE or theta > math.pi - DROP_ANGLE:
            continue
        if abs(cross) * 0.5 <= r_drop * r_max:
            continue
        if cross > 0.0:
            fan.append(SignedSubTriangle(ra, rb, theta, 1, math.atan2(ay, ax)))
        else:
            fan.append(SignedSubTriangle(rb, ra, theta, -1, math.atan2(by, bx)))
    tol = BOUNDARY_TOL_REL * max(lengths)
    # orientation from the first and the last edge, v2 - v1 and v1 - v3
    (x1, y1), (x2, y2), (x3, y3) = verts
    e0x, e0y, e2x, e2y = x2 - x1, y2 - y1, x1 - x3, y1 - y3
    orient = 1.0 if e0x * -e2y - e0y * -e2x >= 0.0 else -1.0
    inside = not any(orient * side < -tol * length for side, length in zip(sides, lengths))
    return RadialExtents(r_min=0.0 if inside else min(dists), r_max=r_max), fan


def subdivide(verts2d) -> list[SignedSubTriangle]:
    """Signed subtriangles of a planar triangle about the origin (``edge_walk``)."""
    return edge_walk(verts2d)[1]


def radial_extents(verts2d) -> RadialExtents:
    """Nearest and farthest distance from the origin to the triangle (``edge_walk``)."""
    return edge_walk(verts2d)[0]


def ref_params(sub: SignedSubTriangle, z: float) -> RefGeom:
    """Reference-triangle parameters for one subtriangle at height z."""
    phi = math.atan((sub.r1 - sub.r2 * math.cos(sub.theta)) / (sub.r2 * math.sin(sub.theta)))
    s = sub.r1 * math.cos(phi)
    S = math.hypot(s, z)
    return RefGeom(
        psi=sub.psi1 + phi,
        s=s,
        S=S,
        alpha=abs(z) / S,
        alpha_p=s / S,
        theta_lo=-phi,
        theta_hi=sub.theta - phi,
    )
