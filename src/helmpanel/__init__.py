"""Helmholtz layer-potential integrals over plane triangular elements.

Evaluates the integrals of e^{jkR}/R (and its first and second normal
derivatives) weighted by {1, x, y} over a plane triangle, to a requested
tolerance, choosing automatically between a collapsed Gauss rule on the
panel for far field points, polar Gaussian quadrature with an a-priori
error estimate, and an expansion-based analytic method for the singular
and near-singular cases.  Returned values exclude the 1/(4 pi)
normalization of the free-space Green's function; multiply by
``GREEN_PREFACTOR`` to convert.
"""

from .analytic import GREEN_PREFACTOR, PanelIntegrals
from .engine import (
    EvalReport,
    EvalRequest,
    evaluate,
    sample_field_point,
    sample_triangle,
)
from .estimator import Q_CAP, EstimatorGeom, select_order
from .expapprox import ExpApprox, economize, select_approx
from .geometry import RadialExtents, Triangle3, radial_extents, subdivide, to_local_frame
from .numquad import adaptive_oracle, polar_integrate

__version__ = "0.1.0"

__all__ = [
    "GREEN_PREFACTOR",
    "PanelIntegrals",
    "EvalReport",
    "EvalRequest",
    "evaluate",
    "sample_field_point",
    "sample_triangle",
    "Q_CAP",
    "EstimatorGeom",
    "select_order",
    "ExpApprox",
    "economize",
    "select_approx",
    "RadialExtents",
    "Triangle3",
    "radial_extents",
    "subdivide",
    "to_local_frame",
    "adaptive_oracle",
    "polar_integrate",
    "__version__",
]
