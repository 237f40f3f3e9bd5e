"""Top-level evaluation: method selection, subdivision, accumulation.

For each request the triangle is moved into the element frame, the radial
extents feed the a-priori 1/R error estimate, and the integrals are then
computed either by polar Gaussian quadrature at the selected order or, when
no admissible order exists, by the expansion method on the signed
subtriangles.

The expansion path is additionally gated on k |z| <= pi/2: beyond that the
upward J-recursions amplify roundoff, so the evaluation falls back to
high-order numeric quadrature (n = 50, the reference order), which is
accurate there because the integrand is far from singular.  Requested
tolerance feeds both the order criterion and the exponential-approximation
tolerance; the combined budget is about twice the request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import PanelIntegrals, evaluate_ref
from .estimator import OrderSelection, select_order
from .expapprox import select_approx
from .geometry import Triangle3, radial_extents, ref_params, subdivide, to_local_frame
from .numquad import polar_integrate

# Stability gate for the analytic path (J-recursion growth factor k|z|).
K_Z_LIMIT = math.pi / 2
# Gauss order of the high-accuracy numeric fallback and reference.
N_FALLBACK = 50
# Floor for the numeric path: the order criterion models only the radial
# 1/R difficulty, but the angle integrand carries the sec^2-shaped geometry
# factor r(theta), which needs a minimum resolution at any z.
N_MIN = 8


@dataclass
class EvalRequest:
    """One panel-integral evaluation."""

    triangle: Triangle3
    field_point: np.ndarray
    k: float
    tol: float = 1e-9
    want_hypersingular: bool = False

    def __post_init__(self):
        self.field_point = np.asarray(self.field_point, dtype=float)
        tri = self.triangle
        if not all(map(math.isfinite, tri.v1.tolist() + tri.v2.tolist() + tri.v3.tolist())):
            raise ValueError("triangle vertices must be finite")
        if not all(map(math.isfinite, self.field_point.tolist())):
            raise ValueError("field point must be finite")
        if not (1e-15 <= self.tol <= 1e-2):
            raise ValueError("tol must lie in [1e-15, 1e-2]")
        if not (0.0 <= self.k < math.inf):
            raise ValueError("k must be finite and non-negative")


@dataclass(slots=True)
class MethodInfo:
    """How a result was produced."""

    kind: str  # "numeric" | "analytic"
    n_gauss: int | None = None
    q_estimate: int | None = None
    q_expansion: int | None = None
    delta_x: float | None = None
    note: str = ""


@dataclass(slots=True)
class EvalReport:
    result: PanelIntegrals | None
    method: MethodInfo
    estimator: OrderSelection | None
    z: float | None
    error: str | None = None


def _analytic_eval(verts2d, z, k, tol, want_hyper) -> tuple[PanelIntegrals, MethodInfo]:
    total = [0j] * (7 if want_hyper else 6)
    q_exp = 0
    dx = None
    for sub in subdivide(verts2d):
        geom = ref_params(sub, z)
        approx = select_approx(k, sub.r_max, tol)
        q_exp = max(q_exp, approx.q)
        dx = approx.delta_x if dx is None else max(dx, approx.delta_x)
        i0, ix, iy, di0, dix, diy, *d2 = evaluate_ref(geom, z, k, approx, want_hyper=want_hyper).values.tolist()
        # the subtriangle's sign times the rotation by psi into the element
        # frame, one 2x2 product on the (ix, iy) and (dix, diy) pairs; on
        # 2-3 subtriangles scalar arithmetic beats NumPy's per-call cost
        sign = sub.sign
        psi = sub.psi1 + geom.phi
        c, s = sign * math.cos(psi), sign * math.sin(psi)
        part = (sign * i0, c * ix - s * iy, s * ix + c * iy, sign * di0, c * dix - s * diy, s * dix + c * diy)
        total = [t + v for t, v in zip(total, part + tuple(sign * v for v in d2))]
    return PanelIntegrals(np.array(total)), MethodInfo(kind="analytic", q_expansion=q_exp, delta_x=dx)


def evaluate(req: EvalRequest, method: str = "auto", n_gauss: int | None = None) -> EvalReport:
    """Evaluate panel integrals for one request.

    ``method`` is "auto" (estimator-driven selection), "analytic" or
    "numeric"; forcing "numeric" uses ``n_gauss`` points per direction
    (defaults to the estimator's choice, or N_FALLBACK; when given, the
    estimator does not run and the report has none).  A forced
    analytic request still falls back to n = 50 numeric when the
    expansion is inadmissible (k * r_max >= pi/2 or k |z| > pi/2); the
    report notes the fallback.
    """
    verts2d, z = to_local_frame(req.triangle, req.field_point)
    ext = radial_extents(verts2d)
    sel = None if method == "numeric" and n_gauss else select_order(ext, z, req.tol)

    def numeric(n: int, note: str = "") -> EvalReport:
        n = max(n, N_MIN)
        res = polar_integrate(verts2d, z, req.k, n, want_hyper=req.want_hypersingular)
        q_est = sel.q if sel is not None else None
        info = MethodInfo(kind="numeric", n_gauss=n, q_estimate=q_est, note=note)
        return EvalReport(res, info, sel, z)

    def analytic() -> EvalReport:
        if req.k * ext.r_max >= math.pi / 2:
            return numeric(
                n_gauss or N_FALLBACK,
                note="analytic inadmissible: k*r_max >= pi/2; numeric fallback",
            )
        if req.k * abs(z) > K_Z_LIMIT:
            return numeric(
                n_gauss or N_FALLBACK,
                note="analytic inadmissible: k|z| > pi/2; numeric fallback",
            )
        res, info = _analytic_eval(verts2d, z, req.k, req.tol, req.want_hypersingular)
        info.q_estimate = sel.q
        return EvalReport(res, info, sel, z)

    if method == "numeric":
        return numeric(n_gauss or sel.n_gauss or N_FALLBACK)
    if method == "analytic":
        return analytic()
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if sel.analytic_required:
        return analytic()
    return numeric(sel.n_gauss)


def evaluate_batch(requests, method: str = "auto") -> list[EvalReport]:
    """Evaluate requests element-wise; failures become per-item records."""
    reports = []
    for req in requests:
        try:
            reports.append(evaluate(req, method=method))
        except Exception as exc:  # noqa: BLE001 - batch must never abort
            reports.append(
                EvalReport(
                    result=None,
                    method=MethodInfo(kind="error"),
                    estimator=None,
                    z=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return reports


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
    """Field point above sample projection ``index`` at height z."""
    px, py = SAMPLE_PROJECTIONS[index]
    return np.array([px, py, z])
