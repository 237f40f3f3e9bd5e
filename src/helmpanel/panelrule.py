"""Collapsed Gauss rule on the panel itself, for field points far from it.

``evaluate``'s auto path serves a well separated pair here, before the
walk: no signed fan, no a-priori 1/R estimate.  The unit square maps onto
the triangle by the collapsed (Duffy) map from its first vertex,

    y(u, v) = (1 - u) a + u (1 - v) b + u v c,   dA = 2 area u du dv,

and an n x n Gauss-Legendre rule in (u, v) (``panel_rule``) integrates the
kernel rows of ``numquad.kernel_rows`` weighted by 1, x and y.  Every line
of nodes, at fixed v or at fixed u, lies on a chord of the triangle.

The order (``panel_order``) has two terms, each an error relative to the
largest value of a kernel row on the panel, which ``numquad``'s rows reach
no closer than D - r: D is the distance from the field point to the
centroid, r the triangle's radius about it (``geometry.to_local_frame``
with ``far``).

  * Pole term.  On a chord with ends A, B and half-length h, 1/R in the
    rule's parameter has its branch points on the Bernstein ellipse with
    rho + 1/rho = (|x - A| + |x - B|) / h.  Every chord lies in the disk of
    radius r about the centroid, so rho >= a + sqrt(a^2 - 1),
    a = sqrt(D^2 - r^2) / r (no complex root is taken), and an n-point rule
    leaves about (64/15) rho^(-2n) (Gauss' constant in the bound on an
    ellipse).  The Jacobian u is at most (1 + a) / 2 on that ellipse, so
    the u direction adds that factor to the v direction's 1: the term is
    (64/15) ((3 + a) / 2) rho^(-2n).  A branch point of order beta leaves
    a remainder (2n)^(beta - 1/2) times that of 1/R (beta = 1/2): G's rows
    take the term as it is, (dG/dz) / z (a 1/R^3 kernel) times 2n and
    d2G/dz2 (1/R^5) times (2n)^2.
  * Entire term.  e^{jkR} turns by at most k r per unit of a chord's
    parameter, so the Gauss remainder c_n f^(2n), c_n = 2^(2n+1) (n!)^4 /
    ((2n + 1) ((2n)!)^3), of the u direction's u e^{jkR} is at most
    c_n (omega^(2n) + n omega^(2n-1)), omega = k r; the two directions
    double it (``_OSC``).

Each row's budget is the README contract over that largest value times
the area: 10 tol for G with weights 1, x and y (|x|, |y| <= D + r), 100 tol
for dG/dz (the second row times z) and 100 tol for d2G/dz2.  The order is
the smallest n whose two terms meet every budget; the gate is that order
itself: the rule runs where a > 1 (D > sqrt(2) r) and the order is at most
N_PANEL_MAX.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .analytic import PanelIntegrals
from .numquad import gauss_rule, kernel_rows

# Largest order the rule runs at.  Timed on bem_nearfield's pairs at
# 1.42 <= D/r < 2.5, the rule stays quicker than the fan up to n = 38 (57 us
# at n = 40 against the fan's 57-60 us), but its cached tables of n = 17 .. 36
# lift the process's peak resident set by 1.8 MB; at n = 16 it takes 23 us
# and its tables about 0.2 MB (README "Conventions").
N_PANEL_MAX = 16
# Gauss' constant in the remainder bound on a Bernstein ellipse.
_POLE = 64.0 / 15.0
# 2 c_n, the entire term's factor, for n = 0 .. N_PANEL_MAX (0 unused); the
# quotient of the two integers is rounded once
_OSC = [0.0] + [
    2 ** (2 * n + 2) * math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3)
    for n in range(1, N_PANEL_MAX + 1)
]
# Past this k r the fan serves the pair: the entire term is then at least
# 6.7e7 times a row's value at every order up to N_PANEL_MAX (least at
# n = 1), and omega^(2n - 1) stays finite.
_OMEGA_MAX = 1e4
# D / r is held here: beyond it the pole term lies far below every budget,
# and a, rho and the pole constant stay finite.
_Q_MAX = 1e100
# The rule runs only where D > GATE_RATIO r: nearer, a <= 1 and the disk
# bound leaves no ellipse.  ``evaluate`` refuses such a pair by this one
# comparison before it calls ``panel_order``.
GATE_RATIO = math.sqrt(2.0)


@lru_cache(maxsize=None, typed=True)
def panel_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The collapsed n x n rule on the triangle as ``panel_integrate`` reads it, cached per n.

    Returns (quad, weights): per node, with barycentric coordinates
    (l1, l2, l3) = (1 - u, u (1 - v), u v), the six products (l1^2, l2^2,
    l3^2, 2 l1 l2, 2 l1 l3, 2 l2 l3), by which the Gram entries of the
    vertices give the node's squared distance r^2, and the four weights
    (w, w l1, w l2, w l3), w = 2 w_u w_v u with w_u, w_v the Gauss weights
    on [0, 1] (the w sum to 1), by which a kernel row gives its integral
    over the area and, through the vertices, its x and y moments.  A bad
    order is a ValueError from ``gauss_rule``.
    """
    x, w = gauss_rule(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    U, V = np.repeat(u, n), np.tile(u, n)
    lam = np.column_stack([1.0 - U, U * (1.0 - V), U * V])
    weight = 2.0 * np.repeat(wu * u, n) * np.tile(wu, n)
    l1, l2, l3 = lam.T
    quad = np.column_stack([l1 * l1, l2 * l2, l3 * l3, 2.0 * l1 * l2, 2.0 * l1 * l3, 2.0 * l2 * l3])
    weights = np.column_stack([weight, weight[:, None] * lam]).astype(complex)  # complex @ complex: no cast per call
    quad.flags.writeable = weights.flags.writeable = False  # cached and shared
    return quad, weights


def panel_order(D: float, radius: float, area: float, k: float, tol: float, want_hyper: bool) -> int | None:
    """The rule's order for a field point at distance D from the centroid, or None where the fan serves it.

    ``radius`` and ``area`` are the triangle's (``geometry.to_local_frame`` with ``far``).
    The smallest n <= N_PANEL_MAX whose pole and entire terms (module
    docstring) meet the budget of every kernel row asked for, with
    d2G/dz2 only under ``want_hyper``; None when D <= sqrt(2) r, where the
    disk bound leaves no ellipse, or when no order up to N_PANEL_MAX does.
    """
    if not D > GATE_RATIO * radius or not (omega := k * radius) < _OMEGA_MAX:
        return None
    q = min(D / radius, _Q_MAX)
    a = math.sqrt((q - 1.0) * (q + 1.0))
    rho = a + math.sqrt((a - 1.0) * (a + 1.0))
    near = D - radius  # the nearest node's distance
    kn = k + 1.0 / near
    moment = max(1.0, D + radius)  # |x|, |y| at a node, and 1
    pole = _POLE * 0.5 * (3.0 + a)
    # orders whose pole term of G's rows alone exceeds that budget cannot pass;
    # the logarithm of that term times the budget's inverse: one log of the
    # product where it is finite and not 0, else a sum of logs, which
    # overflows nowhere
    lead = pole * moment * area / (near * (10.0 * tol))
    if 0.0 < lead < math.inf:
        lead = math.log(lead)
    else:
        lead = math.log(pole) + math.log(moment) + math.log(area) - math.log(near) - math.log(10.0 * tol)
    log_rho = math.log(rho)
    if lead > 2.0 * N_PANEL_MAX * log_rho:
        return None
    n = math.ceil(0.5 * lead / log_rho) if lead > 0.0 else 1
    # each row's largest value times the area, over its budget
    b0 = area * moment / (10.0 * tol * near)
    b1 = b0 * kn / 10.0
    b2 = area * (kn * kn + 2.0 / (near * near)) / (100.0 * tol) if want_hyper else 0.0
    b_max = max(b0, b1, b2)
    rho2 = rho * rho
    pole /= rho2**n
    while n <= N_PANEL_MAX:
        two_n = 2 * n
        if pole * max(b0, b1 * two_n, b2 * two_n * two_n) + _OSC[n] * (omega + n) * omega ** (two_n - 1) * b_max <= 1.0:
            return n
        n += 1
        pole /= rho2
    return None


def panel_integrate(verts2d, z: float, k: float, n: int, area: float, want_hyper: bool = False) -> PanelIntegrals:
    """The panel integrals by the collapsed n x n rule (``panel_rule``).

    ``verts2d`` are the three plane vertices about the projection, counter-
    clockwise, as ``geometry.to_local_frame`` gives them, at height z, and
    ``area`` the triangle's area.  Each node's squared distance is the
    rule's products times the vertices' Gram entries; each kernel row
    (``numquad.kernel_rows``: G, (dG/dz) / z and, with ``want_hyper``,
    d2G/dz2, each its own 1-D array: no block of the rows, whose one matrix
    product cost the far call more) is summed by the rule's four weights
    in one matrix-vector product, the x and y moments taken through the
    vertices, and the first derivatives take their factor -z
    (d/dn = -d/dz) last.  Values come in ``PanelIntegrals`` order, 7 with
    ``want_hyper`` and 6 otherwise.
    """
    quad, weights = panel_rule(n)
    (ax, ay), (bx, by), (cx, cy) = verts2d
    gram = (ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy, ax * bx + ay * by, ax * cx + ay * cy, bx * cx + by * cy)
    rows = kernel_rows(quad.dot(gram), z, k, 3 if want_hyper else 2)
    (s, s1, s2, s3), (t, t1, t2, t3) = rows[0].dot(weights).tolist(), rows[1].dot(weights).tolist()
    dz = -z * area
    values = [area * s, area * (s1 * ax + s2 * bx + s3 * cx), area * (s1 * ay + s2 * by + s3 * cy),
              dz * t, dz * (t1 * ax + t2 * bx + t3 * cx), dz * (t1 * ay + t2 * by + t3 * cy)]
    if want_hyper:
        values.append(area * rows[2].dot(weights).tolist()[0])
    return PanelIntegrals(values)
