"""Top-level evaluation: method selection, subdivision, accumulation.

For each request the field point is moved into the element frame, in the
same read of the triangle as the distance D to its centroid and its radius
r about it (``geometry.to_local_frame`` with ``far``).  Under auto a far
pair is decided first: a pair with D <= sqrt(2) r is refused by one
comparison, and where ``panelrule.panel_order`` derives an order for the
others, the collapsed Gauss rule on the panel (``panelrule.panel_integrate``)
gives the integrals, with no walk and no estimate.  Otherwise one walk over
the triangle's edges gives the radial extents and the signed subtriangles
about the projection.  Under auto the pair then has a second chance at the
rule: ``panel_order`` asked again with the exact distance to the triangle,
hypot(r_min, z), and its longest edge bounds the rule's chords by the
triangle itself instead of the disk about its centroid (``panelrule``'s
module docstring), and a pair close to the panel is refused by a few
products.  The rest go to the a-priori 1/R error estimate, and the
integrals are computed on the subtriangles either by polar Gaussian
quadrature at the selected order or, when no admissible order exists, by
the expansion method, with one expansion entry and one ``assemble`` per
request.

The expansion path is additionally gated on k |z| <= pi/2: beyond that the
upward J-recursions amplify roundoff, so the evaluation falls back to
high-order numeric quadrature (n = 50, the reference order), which is
accurate there because the integrand is far from singular.  Requested
tolerance feeds both the order criterion and the exponential-approximation
tolerance; the combined budget is about twice the request.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .analytic import PanelIntegrals, assemble, evaluate_ref
from .estimator import OrderSelection, select_order
from .expapprox import DELTA_X_TIERS, check_k, select_approx
# radial_extents and subdivide are bound here, unused, for the layer tracer
# of perfbench, which wraps them by name until it spans the walk
from .geometry import Frozen, Triangle3, flag, integer, radial_extents, real_array, real_number, ref_params, subdivide, to_local_frame, walk  # noqa: F401
from .numquad import polar_integrate
from .panelrule import GATE_RATIO, panel_integrate, panel_order

# Stability gate for the analytic path (J-recursion growth factor k|z|).
K_Z_LIMIT = math.pi / 2
# Gauss order of the high-accuracy numeric fallback and reference.
N_FALLBACK = 50
# Floor for the estimator's Gauss order: the order criterion models only
# the radial 1/R difficulty, but the angle integrand carries the
# sec^2-shaped geometry factor r(theta), which needs a minimum resolution
# at any z.  A forced order is used as given.
N_MIN = 8
# Requested tolerances accepted by EvalRequest and the CLI.
TOL_RANGE = (1e-15, 1e-2)
# Values of evaluate's ``method``; ``integrate --method`` offers the same.
METHODS = ("auto", "analytic", "numeric")


def check_tol(tol) -> float:
    """tol as a float; a ValueError unless it is a real number (``geometry.real_number``) in TOL_RANGE."""
    lo, hi = TOL_RANGE
    if not lo <= (tol := real_number(tol, "tol")) <= hi:
        raise ValueError(f"tol must lie in [{lo:g}, {hi:g}]")
    return tol


# EvalRequest's field point: three machine doubles
_POINT = struct.Struct("3d")


class EvalRequest(Frozen):
    """One panel-integral evaluation, checked once, when it is built.

    The triangle validated itself; a ``triangle`` that is not a
    ``Triangle3``, a field point that is not finite real numbers of shape
    (3,) (``geometry.real_array``), a k or a tol that is not a real number
    (``geometry.real_number``: a bool is not), a k that is negative or not
    finite, a tol outside TOL_RANGE or a ``want_hypersingular`` that is not
    a Python or NumPy bool (``geometry.flag``) is a ValueError.  k and tol
    are kept as floats and the flag as a bool, and the point is copied into
    three packed doubles (``_point``), so a later edit of the caller's
    array does not reach the request; ``field_point`` returns it as a
    read-only (3,) array, and ``evaluate`` reads it with one unpack.  No
    field, property or other name can be assigned or deleted (``Frozen``:
    ``dataclasses.FrozenInstanceError``); a pickled or copied request is
    built again from its fields.
    """

    __slots__ = ("triangle", "_point", "k", "tol", "want_hypersingular")

    def __init__(self, triangle: Triangle3, field_point, k: float, tol: float = 1e-9,
                 want_hypersingular: bool = False):
        if not isinstance(triangle, Triangle3):
            raise ValueError(f"triangle must be a Triangle3, got {triangle!r}")
        xyz = real_array(field_point, (3,), "field point")
        fields = (triangle, _POINT.pack(*xyz), check_k(k), check_tol(tol),
                  flag(want_hypersingular, "want_hypersingular"))
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.triangle, self.field_point, self.k, self.tol, self.want_hypersingular)

    def __repr__(self) -> str:
        return (f"EvalRequest(triangle={self.triangle!r}, field_point={self.field_point!r}, k={self.k!r}, "
                f"tol={self.tol!r}, want_hypersingular={self.want_hypersingular!r})")

    @property
    def field_point(self) -> np.ndarray:
        return np.frombuffer(self._point)


@dataclass(frozen=True, slots=True)
class MethodInfo:
    """How a result was produced; one shared instance per distinct value (``_method_info``).

    ``n_gauss`` is the Gauss order per direction of the "panel" and the
    "numeric" kinds: of the collapsed rule on the panel, or of the polar
    rule on each subtriangle of the fan.
    """

    kind: str  # "panel" | "numeric" | "analytic"
    n_gauss: int | None = None
    q_expansion: int | None = None
    delta_x: float | None = None
    note: str = ""


# (kind, n_gauss, q_expansion, delta_x, note) -> the one MethodInfo the reports share:
# one per Gauss order and note, one per expansion entry
_method_info = functools.cache(MethodInfo)


@dataclass(slots=True)
class EvalReport:
    """Integrals, how they were produced, the order selection (None when path
    and order were forced, and for a pair under auto that the rule on the
    panel serves, with no estimate) and the field point's element-frame
    height z.
    The report owns its integrals' values buffer; a pickled or copied
    report has one of its own."""

    result: PanelIntegrals
    method: MethodInfo
    estimator: OrderSelection | None
    z: float

    def __reduce__(self):
        # pickle and copy give the copy a values buffer of its own
        return type(self), (PanelIntegrals(self.result.values), self.method, self.estimator, self.z)


def _analytic_eval(fan, z, k, approx, want_hyper) -> PanelIntegrals:
    """Expansion method on the signed subtriangles of ``fan`` with the request's entry ``approx``.

    Per subtriangle only the angle tables and ``k_terms``' sums are formed
    (``evaluate_ref``); they are signed, rotated into the element frame and
    added, and ``assemble`` applies e^{jk|z|} and its z-derivatives once,
    to the total.  d2I0/dn2 is kept only with ``want_hyper``.
    """
    total = [0j] * 7
    for sub in fan:
        i0, ix, iy, di0, dix, diy, d2 = evaluate_ref(ref_params(sub, z), z, k, approx)
        # sign times the rotation by the foot direction psi, one 2x2 product on the
        # (ix, iy) and (dix, diy) pairs: on 2-3 subtriangles scalar beats NumPy
        sign = sub.sign
        c, s = sign * sub.cos_psi, sign * sub.sin_psi
        total[0] += sign * i0
        total[1] += c * ix - s * iy
        total[2] += s * ix + c * iy
        total[3] += sign * di0
        total[4] += c * dix - s * diy
        total[5] += s * dix + c * diy
        total[6] += sign * d2
    values = assemble(z, k, total)
    return PanelIntegrals(values if want_hyper else values[:6])


def evaluate(req: EvalRequest, method: str = "auto", n_gauss: int | None = None) -> EvalReport:
    """Evaluate panel integrals for one request.

    ``method`` is "auto" (selection by the far gate and the estimator),
    "analytic" or "numeric".  Under "auto" a far pair comes first: where the
    distance to the centroid exceeds ``panelrule.GATE_RATIO`` times the
    triangle's radius (one comparison) and ``panelrule.panel_order`` gives
    an order for them, k and tol, the collapsed rule on the panel runs at
    that order, before any walk, and the report has kind
    "panel" and no estimator.  Any other auto pair asks ``panel_order``
    again after the walk, with its distance hypot(r_min, z) to the triangle
    and ``Triangle3.diameter``, and where that gives an order the rule runs
    at it, with the same report, before ``select_order``.  Forcing
    "numeric" uses exactly ``n_gauss`` points per direction, an integer
    >= 1 and not a bool (without it, the
    estimator's choice floored at N_MIN, or N_FALLBACK; when given, the
    estimator does not run and the report has none).  ``n_gauss`` with any
    other method is a ValueError.
    A forced analytic request still falls back to numeric quadrature at
    n = N_FALLBACK when the expansion is inadmissible (k * r_max >= pi/2 or
    k |z| > pi/2); the report notes the fallback.  Otherwise one entry,
    ``select_approx`` at k * r_max, runs on every subtriangle, and the
    report names it (at k = 0 the order-0 ``LAPLACE``: q_expansion 0,
    delta_x 0.0).  Both arguments are checked before any geometry work.  The
    edges are walked at most once per request (``walk`` on
    ``Triangle3.edges``); its signed subtriangles go to whichever path runs.
    Forced "numeric" and "analytic" never take the rule on the panel.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if n_gauss is not None:
        if method != "numeric":
            raise ValueError(f"n_gauss applies only to method 'numeric', not {method!r}")
        n_gauss = integer(n_gauss, "n_gauss", 1)  # a NumPy integer too: the shared MethodInfo holds an int
    verts2d, z, D, radius, area = to_local_frame(req.triangle, _POINT.unpack(req._point), far=True)
    auto, k, tol, hyper = method == "auto", req.k, req.tol, req.want_hypersingular
    n = panel_order(D, radius, area, k, tol, hyper) if auto and D > GATE_RATIO * radius else None
    if n is None:
        ext, fan = walk(verts2d, req.triangle.edges)
        if auto:  # the triangle's own chords, at the exact distance hypot(r_min, z) to it
            n = panel_order(D, radius, area, k, tol, hyper, math.hypot(ext.r_min, z), req.triangle.diameter)
    if n is not None:
        return EvalReport(panel_integrate(verts2d, z, k, n, area, hyper), _method_info("panel", n, None, None, ""),
                          None, z)
    sel = None if n_gauss is not None else select_order(ext, z, tol)
    note = ""
    if n_gauss is not None:
        n = n_gauss
    elif method == "numeric" or (auto and not sel.analytic_required):
        n = N_FALLBACK if sel.analytic_required else max(sel.n_gauss, N_MIN)
    elif k * ext.r_max >= DELTA_X_TIERS[-1]:
        n, note = N_FALLBACK, "analytic inadmissible: k*r_max >= pi/2; numeric fallback"
    elif k * abs(z) > K_Z_LIMIT:
        n, note = N_FALLBACK, "analytic inadmissible: k|z| > pi/2; numeric fallback"
    else:
        approx = select_approx(k, ext.r_max, tol)
        info = _method_info("analytic", None, approx.q, approx.delta_x, "")
        return EvalReport(_analytic_eval(fan, z, k, approx, hyper), info, sel, z)
    res = polar_integrate(fan, z, k, n, want_hyper=hyper)
    return EvalReport(res, _method_info("numeric", n, None, None, note), sel, z)


# ---------------------------------------------------------------------------
# Default sample geometry: stand-ins for the four classic test points
# (projections on a vertex, in the interior, on an edge, outside).
# ---------------------------------------------------------------------------

def sample_triangle() -> Triangle3:
    """Default sample triangle in the plane z = 0."""
    return Triangle3(
        np.array([0.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.4, 0.9, 0.0]),
    )


SAMPLE_PROJECTIONS: dict[int, tuple[float, float]] = {
    1: (0.0, 0.0),          # on a vertex
    2: (1.4 / 3.0, 0.3),    # interior (centroid)
    3: (0.5, 0.0),          # on an edge
    4: (1.25, 0.45),        # outside the element
}


def sample_field_point(index: int, z: float) -> np.ndarray:
    """Field point above sample projection ``index`` (a key of SAMPLE_PROJECTIONS) at height z."""
    if index not in SAMPLE_PROJECTIONS:
        raise ValueError(f"sample projection index must be one of {sorted(SAMPLE_PROJECTIONS)}, got {index!r}")
    px, py = SAMPLE_PROJECTIONS[index]
    return np.array([px, py, z])
