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
import struct
import sys
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

# Subtriangles thinner than these thresholds contribute below double
# precision noise and would poison the sin(Theta)-derived recursions:
# ``walk`` drops an angle below DROP_ANGLE (or within it of pi) and an area
# up to DROP_RADIUS_REL * r_max^2, which covers every subtriangle with an
# end within DROP_RADIUS_REL * r_max of the origin.
DROP_ANGLE = 1e-10
DROP_RADIUS_REL = 1e-12

# Tolerance (relative to triangle diameter) for the origin-on-boundary test.
BOUNDARY_TOL_REL = 1e-12

# Largest height |z| whose square is finite (``check_height``).
Z_MAX = math.sqrt(sys.float_info.max)

# Triangle3's block: 31 machine doubles in the order to_local_frame and walk
# read them.  v1, normal, e1, e2, the plane vertices (x2, x3, y3) and the
# diameter are _LOCAL, the first 16; edge_frame's tuple, its orient a 64-bit
# integer, is _EDGES; v2, v3 and the area close it.
_BLOCK = struct.Struct("16d6dqd7d")
_LOCAL = struct.Struct("16d")
_EDGES = struct.Struct("6dqd")
_DOUBLE = struct.Struct("d")
# byte offsets into the block
_V1, _NORMAL, _E1, _E2, _DIAMETER, _EDGE_FRAME, _V2, _V3, _AREA = 0, 24, 48, 72, 120, 128, 192, 216, 240


class Frozen:
    """Base of the library's immutable input records (``Triangle3``, ``EvalRequest``).

    A subclass fills its ``__slots__`` once, in ``__init__``, through
    ``object.__setattr__``; after that, assigning or deleting a slot, a
    property or any other name raises ``dataclasses.FrozenInstanceError``
    (an ``AttributeError``).  A subclass keeps a ``__reduce__`` that builds
    it again from its arguments, since restoring the slots' state would
    call the raising ``__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _vector(offset: int, doc: str | None = None) -> property:
    """Three doubles of ``self._block`` from byte ``offset``, as a read-only array."""
    return property(lambda self: np.frombuffer(self._block, count=3, offset=offset), doc=doc)


class Triangle3(Frozen):
    """A validated plane triangle in world coordinates, with its element frame.

    Everything the triangle holds is computed once, here, and packed into
    one immutable block (``bytes``) in the order ``to_local_frame`` and
    ``walk`` read it: v1; the unit normal ``normal`` =
    normalize((v2 - v1) x (v3 - v1)), ``e1`` along v2 - v1 and ``e2`` =
    normal x e1; the vertices in that frame with v1 at the origin, (0, 0),
    (|v2 - v1|, 0) and ((v3 - v1).e1, (v3 - v1).e2), as their three
    non-zero coordinates; ``diameter``; ``edges``, the frame of each edge in
    that plane (``edge_frame``); v2, v3 and ``area``.  The vertices and the
    frame are returned as read-only arrays on the block (``vertices`` and
    ``centroid`` as new arrays).  No attribute can be assigned or deleted
    (``Frozen``: ``dataclasses.FrozenInstanceError``); a pickled or copied
    triangle is built again from its vertices.
    Raises ValueError for a vertex that is not of shape (3,), for
    non-finite vertices and for a degenerate (collinear) triangle.
    """

    __slots__ = ("_block",)

    def __init__(self, v1, v2, v3):
        points = []
        for name, v in (("v1", v1), ("v2", v2), ("v3", v3)):
            v = np.asarray(v, dtype=float)
            if v.shape != (3,):
                raise ValueError(f"triangle vertex {name} must have shape (3,), got {v.shape}")
            points.append(v.tolist())
        p1, p2, p3 = points
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
        x3, y3 = bx * e1x + by * e1y + bz * e1z, bx * e2x + by * e2y + bz * e2z
        edges = edge_frame(((0.0, 0.0), (l12, 0.0), (x3, y3)))
        frame = (nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z)
        block = _BLOCK.pack(*p1, *frame, l12, x3, y3, d, *edges, *p2, *p3, 0.5 * nn)
        object.__setattr__(self, "_block", block)

    def __reduce__(self):
        # pickle and copy build the triangle again from its vertices
        return type(self), (self.v1, self.v2, self.v3)

    def __repr__(self) -> str:
        v1, v2, v3 = self.vertices.tolist()
        return f"Triangle3(v1={v1}, v2={v2}, v3={v3})"

    @classmethod
    def from_flat(cls, coords) -> "Triangle3":
        """Build from a flat sequence of 9 coordinates."""
        c = np.asarray(coords, dtype=float).reshape(3, 3)
        return cls(c[0], c[1], c[2])

    v1 = _vector(_V1)
    v2 = _vector(_V2)
    v3 = _vector(_V3)
    normal = _vector(_NORMAL, "Unit normal, (v2 - v1) x (v3 - v1) normalized.")
    e1 = _vector(_E1, "Unit in-plane axis along v2 - v1 (the local x-axis).")
    e2 = _vector(_E2, "Unit in-plane axis normal x e1 (the local y-axis).")

    @property
    def vertices(self) -> np.ndarray:
        """The vertices as the rows of a new (3, 3) array."""
        return np.vstack([self.v1, self.v2, self.v3])

    @property
    def centroid(self) -> np.ndarray:
        return (self.v1 + self.v2 + self.v3) / 3.0

    @property
    def diameter(self) -> float:
        """The longest edge."""
        return _DOUBLE.unpack_from(self._block, _DIAMETER)[0]

    @property
    def edges(self) -> tuple:
        """``edge_frame`` of the plane vertices: the edge constants ``walk`` reads."""
        return _EDGES.unpack_from(self._block, _EDGE_FRAME)

    @property
    def area(self) -> float:
        return _DOUBLE.unpack_from(self._block, _AREA)[0]


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
    them when it was built (one unpack of the first 16 values of its block);
    per point, z = n.(x - v1) and the projection's plane coordinates
    (e1.(x - v1), e2.(x - v1)) are float arithmetic, and the plane vertices
    are shifted by the latter.  A tuple is read as it is, as three floats
    (``evaluate`` passes its request's unpacked point); anything else, and
    a tuple that fails so, as an array (``point_coordinates``): a point that
    is not three real numbers is a ValueError with ``EvalRequest``'s
    message, and so is a height that ``check_height`` rejects.
    """
    p1x, p1y, p1z, nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z, x2, x3, y3, diameter = _LOCAL.unpack_from(tri._block)
    if type(x) is not tuple:
        x = point_coordinates(x)
    try:  # a tuple of another length fails to unpack, of other entries to subtract or, complex, to convert
        px, py, pz = x
        dx, dy, dz = px - p1x, py - p1y, pz - p1z
        z = float(dx * nx + dy * ny + dz * nz)
    except (TypeError, ValueError):
        return to_local_frame(tri, point_coordinates(x))
    check_height(z)
    if abs(z) <= BOUNDARY_TOL_REL * diameter:
        # an in-plane point lands at a roundoff-level z of either sign; the
        # one-sided limits are taken from z > 0
        z = 0.0
    ox, oy = dx * e1x + dy * e1y + dz * e1z, dx * e2x + dy * e2y + dz * e2z
    return ((0.0 - ox, 0.0 - oy), (x2 - ox, 0.0 - oy), (x3 - ox, y3 - oy)), z


def point_coordinates(x) -> list[float]:
    """The field point x as three floats; a ValueError, naming its shape or else x, unless it is three real numbers."""
    try:
        point = np.asarray(x)
        if point.shape == (3,):
            return [float(v) for v in point.tolist()]
    except (TypeError, ValueError):  # ragged, or an entry that is complex, None or not a number
        raise ValueError(f"field point must be three real numbers, got {x!r}") from None
    raise ValueError(f"field point must have shape (3,), got {point.shape}")


def check_height(z: float) -> None:
    """Raise ValueError unless the height z is finite and so is z^2: |z| <= Z_MAX.

    The kernel reads R^2 = r^2 + z^2, so above Z_MAX = sqrt(sys.float_info.max),
    about 1.34e154, the numeric path would return NaN values; the oracle
    takes the same bound.
    """
    if not abs(z) <= Z_MAX:  # written so that a NaN fails it
        raise ValueError(f"height z = {z!r}: it or its square is not finite (|z| > {Z_MAX:.4g})")


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
    theta = atan(along / s) at its ends, counter-clockwise.  Two tests drop
    slivers: an area s (b.t - a.t) / 2 not above a_drop = DROP_RADIUS_REL *
    r_max^2, and an angle Theta below DROP_ANGLE or within DROP_ANGLE of pi
    (as on an edge line).  An edge with an end within DROP_RADIUS_REL *
    r_max of the origin needs no test of its own: d is taken from that end,
    so s is below that radius, b.t - a.t is at most r_max plus it, and the
    area falls below a_drop.  The survivors' signed areas sum to the signed
    area of ``verts`` (negative when they run clockwise) less the dropped
    slivers', each at most a_drop by the area test and at most
    r_max^2 sin(DROP_ANGLE) / 2 = 50 a_drop by the angle test.
    """
    (ax, ay), (bx, by), (cx, cy) = verts
    t0x, t0y, t1x, t1y, t2x, t2y, orient, tol = edges
    ra, rb, rc = math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy)
    r_max = max(ra, rb, rc)
    a_drop = DROP_RADIUS_REL * r_max * r_max
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
        if s * (hi - lo) * 0.5 <= a_drop:
            continue
        if d > 0.0:
            sub = SignedSubTriangle(1, s, ty, -tx, math.atan(lo / s), math.atan(hi / s))
        else:
            sub = SignedSubTriangle(-1, s, -ty, tx, math.atan(-hi / s), math.atan(-lo / s))
        if DROP_ANGLE <= sub.theta <= math.pi - DROP_ANGLE:
            fan.append(sub)
    return RadialExtents(0.0 if inside else min(near), r_max), fan


def plane_vertices(verts2d) -> list[list[float]]:
    """``verts2d`` as three [x, y] lists of floats; a ValueError unless they are three finite (x, y) pairs."""
    plane = np.asarray(verts2d, dtype=float)
    if plane.shape != (3, 2) or not np.isfinite(plane).all():
        raise ValueError(f"plane vertices must be three finite (x, y) pairs, got {verts2d!r}")
    return plane.tolist()


def edge_walk(verts2d) -> tuple[RadialExtents, list[SignedSubTriangle]]:
    """``walk`` on bare plane vertices (``plane_vertices``), with the edge frame derived from them."""
    verts = plane_vertices(verts2d)
    return walk(verts, edge_frame(verts))


def subdivide(verts2d) -> list[SignedSubTriangle]:
    """Signed subtriangles of a planar triangle about the origin (``edge_walk``).

    Their signed areas sum to the signed area of ``verts2d``, so a clockwise
    order negates every integral over them (``Triangle3``'s plane vertices
    run counter-clockwise)."""
    return edge_walk(verts2d)[1]


def radial_extents(verts2d) -> RadialExtents:
    """Nearest and farthest distance from the origin to the triangle (``edge_walk``),
    bit for bit the same in either vertex order, unlike the fan."""
    return edge_walk(verts2d)[0]


def ref_params(sub: SignedSubTriangle, z: float) -> RefGeom:
    """Reference-triangle parameters for one subtriangle at height z."""
    s = sub.s
    S = math.hypot(s, z)
    return RefGeom(s, S, abs(z) / S, s / S, sub.theta_lo, sub.theta_hi)
