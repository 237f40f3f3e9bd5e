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
edge's unit normal) and theta = atan(along / s) at its two ends.  One
tolerance, ``BOUNDARY_TOL_REL`` of the triangle's size, decides "on an
edge's line" everywhere here: a degenerate triangle, the z snap, the
inside test and the one rule by which the walk drops a subtriangle.  The
triangle also stores its plane centroid and its radius about it, from
which ``centroid_distance`` gives a field point's distance to the centroid,
for ``evaluate``'s far gate, with one hypot.  And
one rule per kind of argument returns it or raises a ValueError naming it:
``real_array`` reads coordinates, ``real_number`` a height, k or extent,
``positive`` a tolerance, ``integer`` an order and ``flag`` a bool.

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

# Tolerance (relative to triangle diameter) for "on an edge's line": the
# z snap, the inside test, the walk's one drop rule and the degeneracy test.
BOUNDARY_TOL_REL = 1e-12

# Largest height |z| whose square is finite (``check_height``).
Z_MAX = math.sqrt(sys.float_info.max)

# Triangle3's block: 34 machine doubles in the order to_local_frame and walk
# read them.  v1, normal, e1, e2, the plane vertices (x2, x3, y3) and the
# diameter are _LOCAL, the first 16; edge_frame's tuple, its orient a 64-bit
# integer, is _EDGES; v2 and v3 follow, and _FAR closes it: the area, the
# plane centroid (about v1) and the radius about it (to the farthest vertex).
_BLOCK = struct.Struct("16d6dqd6d4d")
_LOCAL = struct.Struct("16d")
_EDGES = struct.Struct("6dqd")
_FAR = struct.Struct("4d")
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
    that plane (``edge_frame``); v2, v3, ``area``, and the centroid of the
    plane vertices with the largest distance from it to a vertex, which
    ``centroid_distance`` reads.  The vertices and the
    frame are returned as read-only arrays on the block (``vertices`` and
    ``centroid`` as new arrays).  No attribute can be assigned or deleted
    (``Frozen``: ``dataclasses.FrozenInstanceError``); a pickled or copied
    triangle is built again from its vertices.
    Raises ValueError for a vertex that is not finite real numbers of shape
    (3,) (``real_array``) and for a degenerate (collinear) triangle.
    """

    __slots__ = ("_block",)

    def __init__(self, v1, v2, v3):
        p1, p2, p3 = (real_array(v, (3,), f"triangle vertex v{i}") for i, v in enumerate((v1, v2, v3), 1))
        ax, ay, az = p2[0] - p1[0], p2[1] - p1[1], p2[2] - p1[2]
        bx, by, bz = p3[0] - p1[0], p3[1] - p1[1], p3[2] - p1[2]
        nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
        nn = math.hypot(nx, ny, nz)
        l12 = math.dist(p1, p2)
        d = max(l12, math.dist(p2, p3), math.dist(p3, p1))
        if not (d > 0.0 and nn > BOUNDARY_TOL_REL * d * d and math.isfinite(nn)):
            msg = f"|area| = {0.5 * nn:.3e} below threshold for diameter {d:.3e}"
            raise ValueError(f"degenerate or non-finite triangle: {msg}")
        nx, ny, nz = nx / nn, ny / nn, nz / nn
        e1x, e1y, e1z = ax / l12, ay / l12, az / l12
        e2x, e2y, e2z = ny * e1z - nz * e1y, nz * e1x - nx * e1z, nx * e1y - ny * e1x
        x3, y3 = bx * e1x + by * e1y + bz * e1z, bx * e2x + by * e2y + bz * e2z
        edges = edge_frame(((0.0, 0.0), (l12, 0.0), (x3, y3)))
        frame = (nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z)
        cx, cy = (l12 + x3) / 3.0, y3 / 3.0
        radius = max(math.hypot(cx, cy), math.hypot(l12 - cx, cy), math.hypot(x3 - cx, y3 - cy))
        block = _BLOCK.pack(*p1, *frame, l12, x3, y3, d, *edges, *p2, *p3, 0.5 * nn, cx, cy, radius)
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
        c = real_array(coords, (9,), "flat triangle coordinates")
        return cls(c[:3], c[3:6], c[6:])

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
    are shifted by the latter.  A tuple of three Python floats is read as it
    is (``evaluate`` passes its request's unpacked point); anything else goes
    through ``real_array``, as in ``EvalRequest``: a point that is not finite
    real numbers of shape (3,) is a ValueError, and so is a height that
    ``check_height`` rejects.
    """
    p1x, p1y, p1z, nx, ny, nz, e1x, e1y, e1z, e2x, e2y, e2z, x2, x3, y3, diameter = _LOCAL.unpack_from(tri._block)
    if not (type(x) is tuple and len(x) == 3 and type(x[0]) is type(x[1]) is type(x[2]) is float):
        x = real_array(x, (3,), "field point")
    px, py, pz = x
    dx, dy, dz = px - p1x, py - p1y, pz - p1z
    z = check_height(dx * nx + dy * ny + dz * nz)
    if abs(z) <= BOUNDARY_TOL_REL * diameter:
        # an in-plane point lands at a roundoff-level z of either sign; the
        # one-sided limits are taken from z > 0
        z = 0.0
    ox, oy = dx * e1x + dy * e1y + dz * e1z, dx * e2x + dy * e2y + dz * e2z
    return ((0.0 - ox, 0.0 - oy), (x2 - ox, 0.0 - oy), (x3 - ox, y3 - oy)), z


def centroid_distance(tri: Triangle3, verts2d, z: float) -> tuple[float, float, float]:
    """(D, r, area) for a field point that ``to_local_frame`` gave ``(verts2d, z)``.

    D is the distance from the field point to the triangle's centroid and
    r the triangle's radius about it, the largest distance from the
    centroid to a vertex, so the disk of radius r about the centroid holds
    the triangle.  Both, with the area, come from the block, where the
    centroid is stored in the plane frame about v1, so that the centroid
    about the projection is that plus ``verts2d[0]``, and D is one hypot.
    """
    area, cx, cy, radius = _FAR.unpack_from(tri._block, _AREA)
    ox, oy = verts2d[0]
    return math.hypot(ox + cx, oy + cy, z), radius, area


def real_array(value, shape: tuple, name: str):
    """``value`` as (nested lists of) floats; a ValueError naming ``name`` unless ``np.asarray(value)`` has
    ``shape`` (a ragged value has none), an integer or floating dtype (so no bool, complex, string or None
    entries) and finite values, and a list or tuple holds no bool among its numbers."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        raise ValueError(f"{name} must have shape {shape}, got {value!r}") from None
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all() or (
        # NumPy promotes a bool among numbers in a list to an int or a float; an array keeps its own dtype
        isinstance(value, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat)
    ):
        raise ValueError(f"{name} must be finite and real (an integer or floating dtype), got {value!r}")
    return array.astype(float, copy=False).tolist()


def real_number(value, name: str) -> float:
    """``value`` as a float: an int or a float, Python or NumPy, not a bool (``real_array`` at shape ()).

    A Python float, what the timed paths pass, is returned as it is, NaN and
    inf too: every caller's range check refuses those.
    """
    return value if type(value) is float else real_array(value, (), name)


def positive(value, name: str) -> float:
    """``value`` as a float (``real_number``); a ValueError naming ``name`` unless it is > 0 (a NaN is not)."""
    if not (value := real_number(value, name)) > 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is a Python or NumPy integer, not a bool,
    and at least ``least`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or least is not None and value < least:
        raise ValueError(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")
    return int(value)


def flag(value, name: str) -> bool:
    """``value`` as a bool; a ValueError naming ``name`` unless it is a bool, Python or NumPy."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_height(z) -> float:
    """The height z as a float (``real_number``); a ValueError unless it is finite and so is z^2: |z| <= Z_MAX.

    The kernel reads R^2 = r^2 + z^2, so above Z_MAX = sqrt(sys.float_info.max),
    about 1.34e154, the numeric path would return NaN values; the oracle
    takes the same bound.
    """
    z = real_number(z, "height z")
    if not abs(z) <= Z_MAX:  # written so that a NaN fails it
        raise ValueError(f"height z = {z!r}: it or its square is not finite (|z| > {Z_MAX:.4g})")
    return z


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
    theta = atan(along / s) at its ends, counter-clockwise.  One rule drops
    a subtriangle: s <= BOUNDARY_TOL_REL * max(longest edge, r_max), the
    origin on the edge's line (or an end that close to the origin, since d
    is taken from that end).  Where it matters, for an origin on or inside
    the triangle, r_max is at most the longest edge, so this is the
    tolerance of the inside test and of ``to_local_frame``'s z snap.  A
    kept subtriangle has |along| <= r_max < s / BOUNDARY_TOL_REL, so its
    angles lie within +-atan(1 / BOUNDARY_TOL_REL) (``elemints.THETA_MAX``).
    The survivors' signed areas sum to the signed area of ``verts``
    (negative when they run clockwise) less the dropped ones', each at
    most that threshold times half its edge's length.
    """
    (ax, ay), (bx, by), (cx, cy) = verts
    t0x, t0y, t1x, t1y, t2x, t2y, orient, tol = edges
    ra, rb, rc = math.hypot(ax, ay), math.hypot(bx, by), math.hypot(cx, cy)
    r_max = max(ra, rb, rc)
    drop = max(tol, BOUNDARY_TOL_REL * r_max)
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
        if s <= drop:
            continue
        if d > 0.0:
            fan.append(SignedSubTriangle(1, s, ty, -tx, math.atan(lo / s), math.atan(hi / s)))
        else:
            fan.append(SignedSubTriangle(-1, s, -ty, tx, math.atan(-hi / s), math.atan(-lo / s)))
    return RadialExtents(0.0 if inside else min(near), r_max), fan


def edge_walk(verts2d) -> tuple[RadialExtents, list[SignedSubTriangle]]:
    """``walk`` on bare plane vertices (``real_array``: finite real numbers of shape (3, 2)), with the edge frame derived from them."""
    verts = real_array(verts2d, (3, 2), "plane vertices")
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
