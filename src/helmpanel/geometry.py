"""Element-plane geometry for triangular panels.

A world-space triangle (``Triangle3``) is validated and given its element
frame, its vertices in its own plane and each edge's unit tangent once,
when it is built; each field point is then moved into that frame, in which
the element lies in the plane z = 0 and the field point sits at (0, 0, z):
a height and two dot products, then a shift of the three stored plane
vertices.  Per point, each edge gives from its tangent the signed distance
d_e of the projection (the origin) from its line and the along-edge
coordinates of its two ends.  One walk over the three edges (``walk``)
reads only these: the nearest and farthest distance from the origin to the
triangle, and its decomposition into up to three signed subtriangles, each
with one vertex at the origin and an edge as its far side, given by its
reference parameters: s = |d_e|, the foot direction (plus or minus the
edge's unit normal) and theta = atan(along / s) at its two ends.

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
    and ((v3 - v1).e1, (v3 - v1).e2), and ``edges``, the frame of each edge
    in that plane (``edge_frame``).
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
    edges: tuple = field(init=False, repr=False)

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
        object.__setattr__(self, "edges", edge_frame(((0.0, 0.0), (l12, 0.0), (x3, y3))))

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
    """Origin-centred subtriangle, in the frame of its far side.

    The far side lies at distance ``s``; (``cos_psi``, ``sin_psi``) is the
    direction of its perpendicular foot, at element-plane angle psi
    (reference x/y rotate by it into the element frame).  From the foot, the
    polar angle runs over [theta_lo, theta_hi] inside (-pi/2, pi/2),
    counter-clockwise, and the far side is r(theta) = s / cos(theta), so
    the sides from the origin have lengths s / cos at either end (the
    walk's r_max, which picks the request's expansion, bounds both);
    ``sign`` -1 subtracts it.
    """

    sign: int
    s: float
    cos_psi: float
    sin_psi: float
    theta_lo: float
    theta_hi: float

    @property
    def theta(self) -> float:
        """The angle Theta at the origin."""
        return self.theta_hi - self.theta_lo


@dataclass(slots=True)
class RefGeom:
    """The subtriangle's reference parameters at height z.

    s, theta_lo and theta_hi are the subtriangle's; S^2 = s^2 + z^2,
    alpha = |z|/S and alpha_p = s/S.
    """

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


def to_local_frame(tri: Triangle3, x) -> tuple[tuple, float]:
    """Transform a field point into the triangle's element frame.

    Returns ``(verts2d, z)`` where ``verts2d`` holds the three planar
    vertices as (x, y) pairs of floats, with the field-point projection at
    the origin, and z is the signed height of the field point above the plane.
    Any |z| <= BOUNDARY_TOL_REL * diameter is returned as +0.0, a genuine
    height below the plane as well as roundoff, so the one-sided limits at
    such a point are the ones from z > 0.
    The axes and the plane vertices come from the triangle, which computed
    them when it was built; per point, z = n.(x - v1) and the projection's
    plane coordinates (e1.(x - v1), e2.(x - v1)) are float arithmetic, and
    the plane vertices are shifted by the latter.  A point that is not of
    shape (3,) is a ValueError, with ``EvalRequest``'s message.
    """
    p1 = tri.v1.tolist()
    nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z = tri._frame
    point = np.asarray(x, dtype=float)
    try:  # a point of another shape fails to unpack or, as (3, 1), to subtract
        px, py, pz = point.tolist()
        dx, dy, dz = px - p1[0], py - p1[1], pz - p1[2]
    except (TypeError, ValueError):
        raise ValueError(f"field point must have shape (3,), got {point.shape}") from None
    z = dx * nx + dy * ny + dz * nz
    if not math.isfinite(z):
        raise ValueError(f"field point {x} is not finite")
    if abs(z) <= BOUNDARY_TOL_REL * tri.diameter:
        # an in-plane point lands at a roundoff-level z of either sign; the
        # one-sided limits are taken from z > 0
        z = 0.0
    ox, oy = dx * e1x + dy * e1y + dz * e1z, dx * e2x + dy * e2y + dz * e2z
    x2, x3, y3 = tri._plane
    return ((0.0 - ox, 0.0 - oy), (x2 - ox, 0.0 - oy), (x3 - ox, y3 - oy)), z


def edge_frame(verts) -> tuple:
    """The edge constants ``walk`` reads, from three (x, y) vertices.

    (t0x, t0y, t1x, t1y, t2x, t2y, orient, tol): the unit tangent of each
    edge, from vertex i to vertex i + 1 ((0, 0) at length zero); orient, +1
    when v2 - v1 turns left into v1 - v3 and -1 otherwise; and
    BOUNDARY_TOL_REL times the longest edge.  None changes under a shift.
    """
    tangents, lengths = [], []
    for (ax, ay), (bx, by) in zip(verts, (*verts[1:], verts[0])):
        ex, ey = bx - ax, by - ay
        length = math.hypot(ex, ey)
        lengths.append(length)
        tangents += (ex / length, ey / length) if length > 0.0 else (0.0, 0.0)
    t0x, t0y, _, _, t2x, t2y = tangents
    orient = 1 if t0x * -t2y - t0y * -t2x >= 0.0 else -1
    return (*tangents, orient, BOUNDARY_TOL_REL * max(lengths))


def walk(verts, edges) -> tuple[RadialExtents, list[SignedSubTriangle]]:
    """Radial extents and signed subtriangles about the origin, in one pass.

    ``verts`` are three (x, y) vertices about the origin and ``edges`` their
    ``edge_frame`` (``Triangle3.edges``).  The edge from a = vertex i to
    b = vertex i + 1, unit tangent t, gives on plain floats the signed
    distance d = a x t (b x t from the nearer end; positive to the left)
    and the along-edge coordinates a.t and b.t, measured from the foot.

    Extents: r_min is zero when the origin lies inside the triangle or on
    its boundary (orient * d >= -tol on every edge), otherwise the distance
    to the nearest edge, |d| or the distance to an end.  r_max is the
    distance to the farthest vertex.

    Fan: the subtriangle on each edge has s = |d|; sign +1 and the foot
    along (t_y, -t_x) when d > 0, else sign -1 and the opposite direction;
    theta = atan(along / s) at its ends, counter-clockwise.  Slivers (a
    radius below DROP_RADIUS_REL * r_max, area below DROP_RADIUS_REL *
    r_max^2, angle below DROP_ANGLE or within DROP_ANGLE of pi, as on an
    edge line) are dropped; the survivors' signed areas sum to the area.
    """
    (ax, ay), (bx, by), (cx, cy) = verts
    t0x, t0y, t1x, t1y, t2x, t2y, orient, tol = edges
    ra, rb, rc = math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy)
    r_max = max(ra, rb, rc)
    r_drop = DROP_RADIUS_REL * r_max
    a_drop = r_drop * r_max
    fan: list[SignedSubTriangle] = []
    inside = True
    near = []
    for px, py, rp, qx, qy, rq, tx, ty in (
        (ax, ay, ra, bx, by, rb, t0x, t0y),
        (bx, by, rb, cx, cy, rc, t1x, t1y),
        (cx, cy, rc, ax, ay, ra, t2x, t2y),
    ):
        # from the nearer end, whose rounding is the smaller next to s
        d = px * ty - py * tx if rp <= rq else qx * ty - qy * tx
        lo, hi = px * tx + py * ty, qx * tx + qy * ty
        if orient * d < -tol:
            inside = False
        near.append(rp if lo >= 0.0 else rq if hi <= 0.0 else abs(d))
        s = abs(d)
        if rp < r_drop or rq < r_drop or s * (hi - lo) * 0.5 <= a_drop:
            continue
        if d > 0.0:
            sub = SignedSubTriangle(1, s, ty, -tx, math.atan(lo / s), math.atan(hi / s))
        else:
            sub = SignedSubTriangle(-1, s, -ty, tx, math.atan(-hi / s), math.atan(-lo / s))
        if DROP_ANGLE <= sub.theta <= math.pi - DROP_ANGLE:
            fan.append(sub)
    return RadialExtents(r_min=0.0 if inside else min(near), r_max=r_max), fan


def edge_walk(verts2d) -> tuple[RadialExtents, list[SignedSubTriangle]]:
    """``walk`` on bare plane vertices: the edge frame is derived from ``verts2d``,
    which must be three finite (x, y) pairs (a ValueError otherwise)."""
    plane = np.asarray(verts2d, dtype=float)
    if plane.shape != (3, 2) or not np.isfinite(plane).all():
        raise ValueError(f"plane vertices must be three finite (x, y) pairs, got {verts2d!r}")
    verts = plane.tolist()
    return walk(verts, edge_frame(verts))


def subdivide(verts2d) -> list[SignedSubTriangle]:
    """Signed subtriangles of a planar triangle about the origin (``edge_walk``)."""
    return edge_walk(verts2d)[1]


def radial_extents(verts2d) -> RadialExtents:
    """Nearest and farthest distance from the origin to the triangle (``edge_walk``)."""
    return edge_walk(verts2d)[0]


def ref_params(sub: SignedSubTriangle, z: float) -> RefGeom:
    """Reference-triangle parameters for one subtriangle at height z."""
    s = sub.s
    S = math.hypot(s, z)
    return RefGeom(s=s, S=S, alpha=abs(z) / S, alpha_p=s / S, theta_lo=sub.theta_lo, theta_hi=sub.theta_hi)
